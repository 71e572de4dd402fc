"""Run the benchmark over several seeds and summarise each end-to-end metric
by its median and quartiles, with the spread (q3 - q1) / median set against
the metric's bound in BENCHMARK.json.

    python3 perfbench/sweep.py --workloads certify,lax --seeds 1-10
    python3 perfbench/sweep.py --seeds 1-10 --append perfbench/trajectory.json --label seed

Exits 1 if any run fails, is incorrect, or a spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--append", default=None,
                        help="append the summary as one point to this JSON list")
    parser.add_argument("--label", default=None, help="label stored with the point")
    args = parser.parse_args()
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    ok = True
    summary = {}
    env = None
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        overheads = []
        for seed in _seeds(args.seeds):
            env, result = _run(spec, workload, seed, args.trace)
            if args.trace:
                overheads.append({k: env[k] for k in ("untraced_wall_s", "traced_wall_s",
                                                      "untraced_scaled_s", "traced_scaled_s",
                                                      "trace_overhead_s",
                                                      "count_pass_wall_s")})
            good = result["correct"] and result["failed"] == 0
            ok = ok and good
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if k in bounds and not args.trace),
                  flush=True)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "values": vals}
            bound = bounds[name]
            flag = ""
            if bound is not None:
                if spread > bound:
                    ok, flag = False, "  EXCEEDS BOUND"
                elif spread > bound / 3:
                    flag = "  above a third of the bound"
            print(f"  {workload:10s} {name:38s} median {med:<12.6g} spread {spread:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "") + flag,
                  flush=True)
        if overheads:
            share = [o["trace_overhead_s"] / statistics.mean(o["untraced_scaled_s"])
                     for o in overheads]
            rows["trace_overhead"] = {"median_share": statistics.median(share),
                                      "runs": overheads}
            print(f"  {workload:10s} trace overhead: median {statistics.median(share):.1%} "
                  f"of the untraced pass", flush=True)
        summary[workload] = rows
    if args.append:
        keep = ("nproc", "cpus_usable", "python", "numpy", "commit", "source_sha256")
        point = {"label": args.label, "seeds": _seeds(args.seeds), "trace": args.trace,
                 "run_seconds": spec["run_seconds"],
                 "env": {k: env.get(k) for k in keep} if env else {},
                 "workloads": summary}
        points = []
        if os.path.exists(args.append):
            with open(args.append, encoding="utf-8") as fh:
                points = json.load(fh)
        with open(args.append, "w", encoding="utf-8") as fh:
            json.dump(points + [point], fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
