#!/usr/bin/env python3
"""Steadiness report: repeat each workload, one process per run.

    python3 perfbench/report.py --repeat 10 [--workloads t12_flagship,t3_sudoku]

Runs every workload ``--repeat`` times untraced (seeds ``--seed``,
``--seed``+1, ...) and once traced, each in its own ``run.py`` process,
then prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
quartile distance as a share of the median.  Next to ``wall_s`` (passes
at the reference host speed) it prints ``raw.wall_s`` and ``raw.setup_s``
(the measured times), ``host.slowdown`` (probe time ÷ reference probe time) and
``process.wait_s`` (wall minus CPU time of the timed passes): a slow run
with a large wait was scheduled out, one with a large slowdown ran on a
busy host.  The traced run adds the tracing overhead (traced ÷ untraced raw
wall time) and the layer split.  The summary is also written to
``.perfbench_out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402  (benchmark-local module, no solver import)


def run(workload: str, seed: int, seconds: float, trace: int) -> Dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def summarize(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "n": len(values)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: Dict[str, Dict] = {}
    for workload in args.workloads.split(","):
        runs = [run(workload, args.seed + i, args.seconds, 0) for i in range(args.repeat)]
        metrics = {
            name: summarize([r["result"]["metrics"][name]["value"] for r in runs])
            for name in bounds
        }
        passes = [r["record"]["passes"] for r in runs]
        metrics["raw.wall_s"] = summarize([statistics.median(p["wall_s"] for p in ps)
                                           for ps in passes])
        metrics["raw.setup_s"] = summarize([
            statistics.median(s["import_s"] + s["generate_s"] for s in r["record"]["setups"])
            for r in runs])
        metrics["host.slowdown"] = summarize([
            statistics.median(p["probe_s"] for p in ps if p["probe_s"]) / speed.REFERENCE_PROBE_S
            for ps in passes])
        metrics["process.wait_s"] = summarize([
            statistics.median(p["wall_s"] - p["cpu_s"] for p in ps) for ps in passes])
        entry = {"end_to_end": metrics,
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "passes": [len(r["record"]["passes"]) for r in runs]}
        print(f"\n{workload}  ({args.repeat} runs, passes per run {entry['passes']})")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:16s} {s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['spread']:8.2%} {'' if bound is None else f'{bound:.0%}':>6s}")
        traced = run(workload, args.seed, args.seconds, 1)["result"]["metrics"]
        layers = {name: metric["value"] for name, metric in traced.items()}
        layers["trace.overhead"] = layers["trace.wall_s"] / metrics["raw.wall_s"]["median"]
        entry["per_layer"] = layers
        print(f"  tracing overhead {layers['trace.overhead']:.3f}x; layer split:")
        for name, value in layers.items():
            print(f"    {name:28s} {value:14.6g}")
        summary[workload] = entry
    OUT.mkdir(exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
