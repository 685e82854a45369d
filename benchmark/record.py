"""Record the reference outputs that run.py compares against.

    python3 benchmark/record.py

For every workload this makes one traced pass and stores, per scenario,
the work counts (fronts, events, intervals, CoefficientField.at calls);
for rational scenarios it also stores the sha256 of each report_*.json.
The result is written to benchmark/expected.json.  Re-record only when a
change is meant to alter these outputs, and say so in that change.
"""
from __future__ import annotations

import json
import os
import time

from run import EXPECTED, ROOT, _digests, remove_workdir, run_child
from tracer import summarize
from workloads import WORKLOADS


def main():
    work_root = ROOT / ".bench_work" / f"record-{os.getpid()}"
    expected = {"digests": {}, "work_counts": {}}
    try:
        for name in WORKLOADS:
            workdir = work_root / name
            _, result = run_child(name, 0, 1, "traced", workdir,
                                  time.monotonic() + 600)
            spans = json.loads((workdir / "spans.json").read_text())
            expected["work_counts"][name] = summarize(spans)["work"]
            modes = {sc["id"]: sc["mode"] for sc in result["scenarios"]}
            digests = {run["id"]: _digests(run["out"]) for run in result["runs"]
                       if modes[run["id"]] == "rational"}
            if digests:
                expected["digests"][name] = digests
    finally:
        remove_workdir(work_root)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
