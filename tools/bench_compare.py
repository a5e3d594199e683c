#!/usr/bin/env python
"""Bench regression gate: diff fresh BENCH_*.json against committed records.

Stdlib-only so CI and a bare checkout run the same thing::

    python tools/bench_compare.py --baseline . --candidate /tmp/fresh-bench
    python tools/bench_compare.py --candidate docs-artifacts --latency-threshold 2.0

For every ``BENCH_<name>.json`` present in *both* directories the latest
record on each side is compared:

* **latency** — candidate ``wall_seconds`` more than ``--latency-threshold``
  (default 20%) above the baseline is a regression.  Baselines under
  ``--min-seconds`` are skipped: micro-benchmarks drown in scheduler noise.
* **counters** — the work counters in ``--counters`` (Boolean queries,
  linear checks, ...) growing by more than ``--counter-threshold`` flag an
  algorithmic regression (the solver *did more work*, however fast the
  machine).  Absolute growth under ``--min-count`` is ignored.

Records may be legacy flat dicts (schema 1) or trajectory containers
(schema 2, ``{"schema": 2, "trajectory": [...]}``) — the newest entry of a
trajectory is what competes.  Counters only present on one side are
skipped (new counters appear as instrumentation grows).

Exit status: 0 all clear, 1 regressions found, 2 usage/IO trouble.
``--strict`` also fails (exit 1) when a baseline benchmark has no
candidate record — a silently dropped benchmark is itself a regression.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

#: Work counters that indicate an algorithmic (not machine-speed)
#: regression when they grow.  Monotone "more work" counters only —
#: cache-hit style counters are excluded because *lower* is worse there.
DEFAULT_COUNTERS = (
    "boolean_queries",
    "linear_checks",
    "nonlinear_calls",
    "conflicts_refined",
    "blocking_clauses",
    "equality_splits",
    "models_enumerated",
    # CDCL kernel decisions: same workload + same seed should not need
    # more branching after a kernel change.
    "heap_decisions",
    # Theory work: simplex checks (B&B nodes and IIS probes included),
    # their pivots, and the deletion filter's probes.
    "lp_solves",
    "lp_pivots",
    "iis_probes",
)


def load_latest(path: str) -> Optional[Dict[str, Any]]:
    """The newest record in a BENCH file (either schema), or None."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    if isinstance(data, dict) and isinstance(data.get("trajectory"), list):
        trajectory = [entry for entry in data["trajectory"] if isinstance(entry, dict)]
        return trajectory[-1] if trajectory else None
    if isinstance(data, dict):
        return data
    return None


def bench_files(directory: str) -> Dict[str, str]:
    """Map benchmark name -> path for every BENCH_*.json in a directory."""
    out: Dict[str, str] = {}
    for path in sorted(glob.glob(os.path.join(directory, "BENCH_*.json"))):
        name = os.path.basename(path)[len("BENCH_"):-len(".json")]
        out[name] = path
    return out


def compare_records(
    name: str,
    base: Dict[str, Any],
    cand: Dict[str, Any],
    latency_threshold: float,
    counter_threshold: float,
    min_seconds: float,
    min_count: int,
    counters: Tuple[str, ...],
    check_latency: bool,
) -> List[Dict[str, Any]]:
    """All regressions of one benchmark as JSON-ready finding dicts."""
    findings: List[Dict[str, Any]] = []
    base_wall = base.get("wall_seconds")
    cand_wall = cand.get("wall_seconds")
    if (
        check_latency
        and isinstance(base_wall, (int, float))
        and isinstance(cand_wall, (int, float))
        and base_wall >= min_seconds
        and cand_wall > base_wall * (1.0 + latency_threshold)
    ):
        findings.append(
            {
                "benchmark": name,
                "metric": "wall_seconds",
                "baseline": round(float(base_wall), 6),
                "candidate": round(float(cand_wall), 6),
                "ratio": round(float(cand_wall) / float(base_wall), 3),
                "threshold": latency_threshold,
            }
        )
    base_counters = base.get("counters") or {}
    cand_counters = cand.get("counters") or {}
    for counter in counters:
        base_value = base_counters.get(counter)
        cand_value = cand_counters.get(counter)
        if not isinstance(base_value, (int, float)) or not isinstance(
            cand_value, (int, float)
        ):
            continue
        if cand_value - base_value < min_count:
            continue
        if base_value <= 0:
            # 0 -> anything is infinite growth; flag only past the floor
            # (already checked above).
            ratio = float("inf")
        else:
            ratio = cand_value / base_value
            if cand_value <= base_value * (1.0 + counter_threshold):
                continue
        findings.append(
            {
                "benchmark": name,
                "metric": counter,
                "baseline": base_value,
                "candidate": cand_value,
                "ratio": round(ratio, 3) if ratio != float("inf") else "inf",
                "threshold": counter_threshold,
            }
        )
    return findings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench_compare",
        description="Fail when fresh bench records regress against committed ones",
    )
    parser.add_argument(
        "--baseline",
        default=".",
        metavar="DIR",
        help="directory with the committed BENCH_*.json records (default: .)",
    )
    parser.add_argument(
        "--candidate",
        required=True,
        metavar="DIR",
        help="directory with the freshly produced BENCH_*.json records",
    )
    parser.add_argument(
        "--latency-threshold",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="allowed wall-clock growth (default 0.2 = +20%%); raise it for "
        "cross-machine comparisons where wall time is mostly noise",
    )
    parser.add_argument(
        "--counter-threshold",
        type=float,
        default=0.2,
        metavar="FRACTION",
        help="allowed work-counter growth (default 0.2 = +20%%)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="skip latency comparison when the baseline is faster than this",
    )
    parser.add_argument(
        "--min-count",
        type=int,
        default=5,
        metavar="N",
        help="ignore counter growth smaller than N in absolute terms",
    )
    parser.add_argument(
        "--counters",
        default=",".join(DEFAULT_COUNTERS),
        metavar="CSV",
        help="comma-separated work counters to gate on",
    )
    parser.add_argument(
        "--no-latency",
        action="store_true",
        help="gate on counters only (for cross-machine CI runs)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also fail when a baseline benchmark has no candidate record",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write the findings as JSON to PATH ('-' for stdout)",
    )
    args = parser.parse_args(argv)

    for directory in (args.baseline, args.candidate):
        if not os.path.isdir(directory):
            print(f"error: not a directory: {directory}", file=sys.stderr)
            return 2

    counters = tuple(
        name.strip() for name in args.counters.split(",") if name.strip()
    )
    baseline_files = bench_files(args.baseline)
    candidate_files = bench_files(args.candidate)
    if not baseline_files:
        print(f"error: no BENCH_*.json under {args.baseline}", file=sys.stderr)
        return 2

    findings: List[Dict[str, Any]] = []
    missing: List[str] = []
    compared = 0
    for name, base_path in sorted(baseline_files.items()):
        cand_path = candidate_files.get(name)
        if cand_path is None:
            missing.append(name)
            continue
        base = load_latest(base_path)
        cand = load_latest(cand_path)
        if base is None or cand is None:
            print(
                f"error: unreadable record for {name!r} "
                f"({base_path if base is None else cand_path})",
                file=sys.stderr,
            )
            return 2
        compared += 1
        findings.extend(
            compare_records(
                name,
                base,
                cand,
                latency_threshold=args.latency_threshold,
                counter_threshold=args.counter_threshold,
                min_seconds=args.min_seconds,
                min_count=args.min_count,
                counters=counters,
                check_latency=not args.no_latency,
            )
        )

    for finding in findings:
        print(
            f"REGRESSION {finding['benchmark']}: {finding['metric']} "
            f"{finding['baseline']} -> {finding['candidate']} "
            f"(x{finding['ratio']}, allowed +{finding['threshold']:.0%})"
        )
    for name in missing:
        level = "MISSING" if args.strict else "skipped (no candidate record)"
        print(f"{level}: {name}")

    if args.json is not None:
        payload = json.dumps(
            {"compared": compared, "missing": missing, "regressions": findings},
            indent=2,
            sort_keys=True,
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")

    failed = bool(findings) or (args.strict and bool(missing))
    print(
        f"bench_compare: {compared} benchmark(s) compared, "
        f"{len(findings)} regression(s), {len(missing)} missing -> "
        f"{'FAIL' if failed else 'OK'}"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
