"""Write pins.json: the sha256 of every exact report (verify, symbols) the
benchmark runs, and its case counts.

The pins are taken once, from the commit that defined the benchmark.  The
exact reports must stay byte-identical, so a later change that needs new pins
has changed what the program certifies; rerunning this script is then a
decision for review, not a routine step.

    python3 perfbench/pin.py
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def main() -> int:
    pins = {}
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as tmp:
        jobs = [j for w in ("certify", "symbols") for j in workloads.build(w, 0, tmp)]
    for job in sorted(jobs, key=lambda j: j.key):
        _, (code, _, text) = workloads.execute(job)
        if code != 0:
            print(f"{job.key}: exit code {code}", file=sys.stderr)
            return 1
        pins[job.key] = {
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "caseCount": workloads.case_counts(job.kind, json.loads(text)),
        }
    with open(workloads.PINS_FILE, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins)} reports in {workloads.PINS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
