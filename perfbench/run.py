"""calogero benchmark.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Runs from the root of a checkout and uses the sources under ``src/`` there.
Each workload is a closed loop: one job at a time, each job a call of
``calogero.cli.main(argv)`` (or ``verify_flatness``) with ``--workers=1``.
Every pass over the job list runs in a fresh interpreter (``passrun.py``),
so a pass never reuses what an earlier one left in memory.

Every time is scaled by the reference clock sampled around it
(``refclock.py``), so it reads in seconds at one fixed machine speed.  With
``--trace 0`` passes repeat until ``--seconds`` is used up (at least one
pass), and the end-to-end metrics are reported: the job list's time from each
job's median over the passes, the median of those job times, peak memory and
the median set-up time.  With ``--trace 1`` untraced passes and timing passes
alternate, two of each, then one count pass runs (see ``layertrace.py``), and
the per-layer metrics are reported.  Every job's report passes a correctness
gate; the negative controls must fail it.

The last line of stdout is the result object; the line before it is the
environment header.  Spans of a traced run go to
``.perfbench_out/spans-<workload>-seed<seed>.npz``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time

import refclock
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3           # set-up samples at the start and after each pass
TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150

# times the import, then samples the reference clock twice in the same process
_IMPORT_TIMER = ("import sys, time\nt = time.perf_counter()\nimport calogero.cli\n"
                 "t = time.perf_counter() - t\nsys.path.insert(0, sys.argv[1])\n"
                 "import refclock\nrefclock.sample()\n"
                 "print(t, refclock.sample(), refclock.sample())\nprint(calogero.cli.__file__)\n")


class BenchError(RuntimeError):
    pass


def _import_seconds() -> tuple[float, float, float]:
    """Import time of ``calogero.cli`` in a fresh interpreter, as a CLI user
    pays it, and two reference samples taken in that interpreter right after."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, HERE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing calogero.cli failed:\n{proc.stderr}")
    seconds, where = proc.stdout.split("\n")[:2]
    if not os.path.abspath(where).startswith(SRC + os.sep):
        raise BenchError(f"calogero was imported from {where}, not from {SRC}")
    t_import, ref_a, ref_b = (float(v) for v in seconds.split())
    return t_import, ref_a, ref_b


class Setup:
    """Set-up samples: importing ``calogero.cli`` in a fresh interpreter plus
    generating the inputs, each scaled by the reference clock sampled in that
    interpreter right after the import (samples from this process would often
    run on the other core).  Samples are taken at the start and again after
    every pass, and their median is reported."""

    def __init__(self, workload: str, seed: int, work_dir: str):
        self.args = (workload, seed, work_dir)
        self.imports: list[float] = []
        self.inputs: list[float] = []
        self.scaled: list[float] = []

    def sample(self, reps: int):
        for _ in range(reps):
            t_import, ref_a, ref_b = _import_seconds()
            t0 = time.perf_counter()
            jobs = workloads.attach_pins(workloads.build(*self.args))
            t_inputs = time.perf_counter() - t0
            self.scaled.append(refclock.scale(t_import + t_inputs, ref_a, ref_b))
            self.inputs.append(t_inputs)
            self.imports.append(t_import)
        return jobs

    def seconds(self) -> float:
        return statistics.median(self.scaled)


class Tally:
    """Counts attempted and failed jobs and keeps the first few findings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.findings: list[str] = []

    def record(self, jobs, findings: list[list[str]]) -> None:
        for job, bad in zip(jobs, findings, strict=True):
            self.attempted += 1
            if bad:
                self.failed += 1
                if len(self.findings) < 10:
                    self.findings.append(f"{job.key}: {'; '.join(bad)}")


class Passes:
    """Runs passes over one pickled job list, each in a fresh interpreter."""

    def __init__(self, jobs, work_dir: str, name: str):
        self.jobs = jobs
        self.jobs_file = os.path.join(work_dir, f"{name}.pkl")
        with open(self.jobs_file, "wb") as fh:
            pickle.dump(jobs, fh)
        self.count = 0

    def run(self, mode: str, tally: Tally) -> dict:
        self.count += 1
        out_file = f"{self.jobs_file}.{mode}.{self.count}.out"
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "passrun.py"), self.jobs_file, out_file, mode],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{mode} pass exited {proc.returncode}:\n{proc.stderr}")
        with open(out_file, "rb") as fh:
            result = pickle.load(fh)
        os.remove(out_file)
        tally.record(self.jobs, result["findings"])
        return result


def scaled_times(result: dict) -> list[float]:
    """A pass's job times, each scaled by the reference samples around it."""
    refs = result["refs"]
    return [refclock.scale(t, before, after)
            for t, before, after in zip(result["times"], refs, refs[1:])]


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "calogero")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def _quantiles(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"n": len(ordered), "p50": statistics.median(ordered),
            "p90": ordered[min(len(ordered) - 1, int(0.9 * len(ordered)))],
            "max": ordered[-1]}


def measure(workload: str, seed: int, seconds: int, trace: bool, work_dir: str):
    os.makedirs(work_dir, exist_ok=True)
    setup = Setup(workload, seed, work_dir)
    jobs = setup.sample(SETUP_REPS)
    passes = Passes(jobs, work_dir, "jobs")
    tally = Tally()
    header = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": None,
        "commit": _commit(), "source_sha256": _source_sha256(),
        "loop": "closed, 1 client, --workers=1, a fresh interpreter per pass",
        "jobs_per_pass": len(jobs),
    }
    if trace:
        import layertrace

        # untraced and timing passes alternate, twice each; the overhead is
        # the difference of their mean scaled times, and the per-layer times
        # come from the timing pass with the smaller scaled time
        plains, timings = [], []
        for _ in range(TRACE_PAIRS):
            plains.append(passes.run("plain", tally))
            timings.append(passes.run("time", tally))
        plain_s = [sum(scaled_times(r)) for r in plains]
        timing_s = [sum(scaled_times(r)) for r in timings]
        timing = timings[timing_s.index(min(timing_s))]
        counting = passes.run("count", tally)
        metrics = layertrace.layer_metrics(timing["trace"], counting["trace"])
        # per-layer times are scaled by their pass's ratio of scaled to raw time
        factor = min(timing_s) / sum(timing["times"])
        metrics = {name: (value * factor if unit == "s" else value, unit)
                   for name, (value, unit) in metrics.items()}
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.npz")
        layertrace.save_spans(spans_file, timing["trace"])
        header.update({"numpy": timing["numpy"],
                       "untraced_wall_s": [r["wall"] for r in plains],
                       "traced_wall_s": [r["wall"] for r in timings],
                       "untraced_scaled_s": plain_s, "traced_scaled_s": timing_s,
                       "trace_overhead_s": statistics.mean(timing_s) - statistics.mean(plain_s),
                       "count_pass_wall_s": counting["wall"],
                       "spans": len(timing["trace"]["spans"]["fid"]) // 4,
                       "leaf_entries": sum(c for c, _ in timing["trace"]["leaf"].values()),
                       "spans_file": os.path.relpath(spans_file, ROOT)})
    else:
        walls, job_times, rss_kb = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            result = passes.run("plain", tally)
            walls.append(result["wall"])
            job_times.append(scaled_times(result))
            rss_kb.append(result["maxrss_kb"])
            setup.sample(SETUP_REPS)
            now = time.perf_counter()
            if now - start + (now - t0) > seconds:
                break
        # each job's median scaled time over the passes
        per_job = [statistics.median(t) for t in zip(*job_times)]
        metrics = {
            "wall_s": (sum(per_job), "s"),
            "job_p50_s": (statistics.median(per_job), "s"),
            "peak_rss_mb": (max(rss_kb) / 1024.0, "MB"),
            "setup_s": (setup.seconds(), "s"),
        }
        header.update({"numpy": result["numpy"], "pass_wall_s": walls,
                       "pass_peak_rss_mb": [kb / 1024.0 for kb in rss_kb],
                       "job_scaled_s": _quantiles(per_job)})
    controls = workloads.negative_controls(jobs)
    control_tally = Tally()
    Passes(controls, work_dir, "controls").run("plain", control_tally)
    header["negative_controls"] = {"attempted": control_tally.attempted,
                                   "counted_failed": control_tally.failed,
                                   "jobs": [job.key for job in controls]}
    header["setup"] = {"import_s": setup.imports, "inputs_s": setup.inputs,
                       "scaled_s": setup.scaled}
    header["findings"] = tally.findings
    correct = tally.failed == 0 and control_tally.failed == control_tally.attempted
    return header, {"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                    "metrics": {name: {"value": value, "unit": unit}
                                for name, (value, unit) in metrics.items()}}


def _declared_metrics(trace: bool) -> set[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "calogero", "cli.py")):
        print(f"perfbench: no calogero sources under {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        header, result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                                 work_dir)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    declared = _declared_metrics(bool(args.trace))
    if set(result["metrics"]) != declared:
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(result['metrics']) ^ declared)}", file=sys.stderr)
        return 2
    for finding in header["findings"]:
        print(f"perfbench: failed {finding}", file=sys.stderr)
    print(json.dumps({"env": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
