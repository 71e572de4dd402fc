"""Workload definitions: seeded job lists, the per-job correctness gate and
the negative controls.

Every job but one kind goes through the public entry point
``calogero.cli.main(argv)`` in-process, with the report captured from stdout.
``transport.verify_flatness`` has no subcommand and is called as a library
function.  Vector arguments are passed as ``--p=<v>`` / ``--x=<v>``: the
parser reads a leading ``-`` in a separate argument as an option (see
NOTES.md).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

WORKLOADS = ("certify", "symbols", "transport", "lax")
SUITES = ("zerocurv", "intertwine", "sumsq", "permrel", "restriction")

HOLONOMY_TOL = 1e-8
DYSON_TOL = 1e-6
DRIFT_TOL = 1e-8
LAX_STATES = (((0.0, 1.0, 3.0), (1.0, 0.0, -1.0)),
              ((-1.5, 0.0, 1.0, 2.5), (1.0, 0.5, -0.5, -1.0)))
LAX_T = 0.1
LAX_COPIES = 12
LAX_DT = 1e-4

PINS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


@dataclass
class Job:
    key: str              # stable name, also the key into pins.json
    kind: str             # verify | symbols | transport | simulate | flatness
    argv: list | None = None
    expect: dict = field(default_factory=dict)
    flatness: tuple | None = None   # (n, p, c, points) for the library call


# -- job lists -----------------------------------------------------------------


def _verify_job(n: int, deg: int, suite: str) -> Job:
    return Job(f"verify/{n}/{deg}/{suite}", "verify",
               ["verify", f"--n={n}", f"--deg={deg}", f"--suite={suite}", "--workers=1"])


def _symbols_job(n: int, deg: int, j: int, k: int) -> Job:
    return Job(f"symbols/{n}/{deg}/{j}/{k}", "symbols",
               ["symbols", f"--n={n}", f"--deg={deg}", f"--j={j}", f"--k={k}"])


def _vector(values) -> str:
    return ",".join(str(v) for v in values)


def _transport_job(key: str, path_file: str, p, dyson: bool) -> Job:
    argv = ["transport", f"--path={path_file}", f"--p={_vector(p)}", "--c=1"]
    if dyson:
        argv += ["--compare-dyson", "8", "400"]
    return Job(key, "transport", argv,
               {"holonomy_tol": HOLONOMY_TOL, "dyson_tol": DYSON_TOL if dyson else None})


def _simulate_job(key: str, x, p, t: float) -> Job:
    argv = ["simulate", f"--x={_vector(x)}", f"--p={_vector(p)}", f"--t={t!r}",
            f"--dt={LAX_DT!r}", "--sample-stride=1000"]
    steps = int(round(t / LAX_DT))
    samples = 1 + steps // 1000 + (1 if steps % 1000 else 0)
    return Job(key, "simulate", argv, {"drift_tol": DRIFT_TOL, "samples": samples})


def _flatness_job(key: str, n: int, rng: random.Random, count: int) -> Job:
    p = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(n))
    points = []
    for _ in range(count):
        x = Fraction(rng.randint(-24, 24), rng.randint(1, 4))
        point = [x]
        for _ in range(n - 1):
            x += Fraction(rng.randint(1, 12), rng.randint(1, 4))
            point.append(x)
        points.append(tuple(point))
    pairs = n * (n - 1) // 2
    return Job(key, "flatness", None, {"caseCount": pairs * count},
               flatness=(n, p, Fraction(1), tuple(points)))


def _loop(rng: random.Random, n: int, radius: float, corners: int) -> dict:
    """Closed regular polygon of fixed size in a random 2-plane around the
    evenly spaced point (0, 1, ..., n-1): the seed moves the loop's
    orientation, not its length, so the work per loop stays nearly fixed."""
    base = [float(i) for i in range(n)]
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(n)]
        v = [rng.gauss(0.0, 1.0) for _ in range(n)]
        nu = math.sqrt(sum(a * a for a in u))
        u = [a / nu for a in u]
        dot = sum(a * b for a, b in zip(u, v))
        v = [b - dot * a for a, b in zip(u, v)]
        nv = math.sqrt(sum(b * b for b in v))
        v = [b / nv for b in v]
        points = [base]
        for i in range(1, corners):
            th = 2.0 * math.pi * i / corners
            points.append([x + radius * ((math.cos(th) - 1.0) * a + math.sin(th) * b)
                           for x, a, b in zip(base, u, v)])
        points.append(base)
        if min(w[i + 1] - w[i] for w in points for i in range(n - 1)) >= 0.5:
            return {"N": n, "margin": 0.1, "waypoints": points}


def build(workload: str, seed: int, work_dir: str) -> list[Job]:
    """The workload's job list for one pass, made from the seed alone.

    For the exact workloads the seed fixes the job order only, so every seed
    does the same work.  For transport and lax it draws the loops, momenta,
    rational points and small state perturbations instead, and the order
    stays fixed: the peak memory of a pass depends on the order in which the
    large arrays are allocated and freed, and would change with the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    if workload == "certify":
        for n, top in ((2, 6), (3, 4)):
            for deg in range(1, top + 1):
                jobs += [_verify_job(n, deg, s) for s in SUITES]
    elif workload == "symbols":
        for n, deg in ((2, 6), (3, 6), (4, 5)):
            for j in range(n):
                jobs += [_symbols_job(n, deg, j, k) for k in range(j + 1, n)]
    elif workload == "transport":
        os.makedirs(work_dir, exist_ok=True)
        # no job runs much longer than 0.4 s, so the reference samples around
        # it stay close to it in time; 11 N=3 loops without Dyson against 11
        # jobs above 0.13 s put the median job in the middle of the 9 N=3
        # Dyson loops
        for n, loops, dyson, radius, corners in ((3, 20, 9, 0.2, 6), (4, 4, 2, 0.2, 6),
                                                 (5, 3, 0, 0.05, 3)):
            for i in range(loops):
                key = f"transport/{n}/{i}"
                path_file = os.path.join(work_dir, f"loop-{n}-{i}.json")
                with open(path_file, "w", encoding="utf-8") as fh:
                    json.dump(_loop(rng, n, radius, corners), fh)
                p = tuple(Fraction(rng.randint(-4, 4), 4) for _ in range(n))
                jobs.append(_transport_job(key, path_file, p, i < dyson))
        jobs.append(_flatness_job("flatness/4/0", 4, rng, 8))
        jobs += [_flatness_job(f"flatness/5/{i}", 5, rng, 1) for i in range(3)]
    elif workload == "lax":
        for x, p0 in LAX_STATES:
            for i in range(LAX_COPIES):
                p = tuple(round(v + rng.uniform(-0.05, 0.05), 6) for v in p0)
                jobs.append(_simulate_job(f"simulate/{len(x)}/{i}", x, p, LAX_T))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if workload in ("certify", "symbols"):
        rng.shuffle(jobs)
    return jobs


def attach_pins(jobs: list[Job]) -> list[Job]:
    """Give every exact job its pinned report digest and case counts."""
    with open(PINS_FILE, "r", encoding="utf-8") as fh:
        pins = json.load(fh)
    for job in jobs:
        if job.kind in ("verify", "symbols"):
            job.expect = dict(pins[job.key])
    return jobs


def negative_controls(jobs: list[Job]) -> list[Job]:
    """For each job kind in the list, its cheapest job with one deliberately
    wrong expectation; the gate must count every one of them as failed."""
    out = []
    for kind in sorted({job.kind for job in jobs}):
        # smallest N first: the key's second field
        job = min((j for j in jobs if j.kind == kind),
                  key=lambda j: (int(j.key.split("/")[1]), j.key))
        expect = dict(job.expect)
        if kind == "verify":
            digest = expect["sha256"]
            expect["sha256"] = digest[:-1] + ("0" if digest[-1] != "0" else "1")
        elif kind in ("symbols", "flatness"):
            expect["caseCount"] += 1
        elif kind == "transport":
            expect["holonomy_tol"] = -1.0      # impossible tolerance
        elif kind == "simulate":
            expect["drift_tol"] = -1.0         # impossible tolerance
        out.append(replace(job, key=f"control/{job.key}", expect=expect))
    return out


# -- running and checking one job ------------------------------------------------


def _run_cli(argv: list) -> tuple[int, str]:
    from calogero import cli   # looked up per call, so a traced run sees the wrapper

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def execute(job: Job) -> tuple[float, tuple]:
    """Run one job; returns its wall time and its outcome (code, report, text).

    Only the call into the program is timed; :func:`check` runs later."""
    t0 = time.perf_counter()
    try:
        if job.kind == "flatness":
            from calogero import transport

            n, p, c, points = job.flatness
            conn = transport.build_local_system(n, p, c)
            outcome = (0, transport.verify_flatness(conn, points), None)
        else:
            code, text = _run_cli(job.argv)
            outcome = (code, None, text)
    except Exception as exc:   # a crashing job is a failed job, never a skipped one
        outcome = (None, None, f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - t0, outcome


def check(job: Job, outcome: tuple) -> list[str]:
    """The job's correctness gate: a list of findings, empty when it passed."""
    code, report, text = outcome
    if code is None:
        return [f"raised {text}"]
    bad = []
    if code != 0:
        bad.append(f"exit code {code}")
    if report is None and text:
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            pass
    if report is None:
        return bad + ["no report"]
    try:
        return bad + _report_findings(job, report, text)
    except (KeyError, TypeError, AttributeError) as exc:
        return bad + [f"malformed report: {exc!r}"]


def _report_findings(job: Job, report: dict, text: str | None) -> list[str]:
    bad = []
    e = job.expect
    if job.kind in ("verify", "symbols"):
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != e["sha256"]:
            bad.append("report digest differs from the pinned one")
        counts = case_counts(job.kind, report)
        if counts != e["caseCount"]:
            bad.append(f"caseCount {counts} != pinned {e['caseCount']}")
    elif job.kind == "transport":
        hol = report.get("holonomyDeviation")
        if hol is None or not hol <= e["holonomy_tol"]:
            bad.append(f"holonomy deviation {hol} > {e['holonomy_tol']}")
        if e["dyson_tol"] is not None:
            dev = (report.get("dysonComparison") or {}).get("deviation")
            if dev is None or not dev <= e["dyson_tol"]:
                bad.append(f"Dyson deviation {dev} > {e['dyson_tol']}")
    elif job.kind == "simulate":
        if report.get("withinTolerance") is not True:
            bad.append("withinTolerance is not true")
        if report.get("samples") != e["samples"]:
            bad.append(f"{report.get('samples')} samples != {e['samples']}")
        drift = report.get("maxDrift", {})
        for j in range(1, 5):
            value = drift.get(f"I{j}")
            if value is None or not value <= e["drift_tol"]:
                bad.append(f"I{j} drift {value} > {e['drift_tol']}")
    elif job.kind == "flatness":
        if report["failures"]:
            bad.append(f"{len(report['failures'])} flatness failures")
        if report["caseCount"] != e["caseCount"]:
            bad.append(f"caseCount {report['caseCount']} != {e['caseCount']}")
    return bad


def case_counts(kind: str, report: dict):
    if kind == "verify":
        return [s["caseCount"] for s in report["suites"]]
    return report["realizations"]["caseCount"]
