"""One pass over a job list, in a fresh interpreter.

    python3 perfbench/passrun.py JOBS OUT MODE

JOBS is a pickled job list written by ``run.py``, OUT the pickle this script
writes, MODE one of ``plain`` (no tracer), ``count`` or ``time`` (the two
tracers of ``layertrace.py``).  The interpreter imports ``calogero.cli`` from
``src/`` before anything is timed, runs the jobs one at a time, timing only
each call into the program, samples the reference clock (``refclock.py``)
before the first job and after each, and gates every job after the pass.

Every pass gets its own interpreter, as every CLI run does: a pass never finds
anything the program cached during an earlier one.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: list[str]) -> int:
    jobs_file, out_file, mode = argv
    sys.path.insert(0, SRC)
    import calogero.cli
    import numpy as np

    import refclock
    import workloads

    if not os.path.abspath(calogero.cli.__file__).startswith(SRC + os.sep):
        print(f"calogero was imported from {calogero.cli.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    with open(jobs_file, "rb") as fh:
        jobs = pickle.load(fh)
    tracer = None
    if mode != "plain":
        import layertrace

        tracer = layertrace.CountTracer() if mode == "count" else layertrace.TimeTracer()
        tracer.install()
    times, outcomes = [], []
    refclock.sample()   # warm-up
    refs = [refclock.sample()]
    t0 = time.perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        elapsed, outcome = workloads.execute(job)
        refs.append(refclock.sample())
        times.append(elapsed)
        outcomes.append(outcome)
    wall = time.perf_counter() - t0 - sum(refs[1:])
    if tracer is not None:
        tracer.uninstall()
    result = {
        "wall": wall, "times": times, "refs": refs,
        "findings": [workloads.check(job, outcome) for job, outcome in zip(jobs, outcomes)],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "numpy": np.__version__,
        "trace": tracer.data() if tracer is not None else None,
    }
    with open(out_file, "wb") as fh:
        pickle.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
