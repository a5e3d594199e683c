#!/usr/bin/env python3
"""The repository benchmark: one workload, one process, verdicts checked.

    python3 perfbench/run.py --workload t12_flagship --seed 1 --seconds 20 --trace 0

Set-up (importing the solver, generating the instances) is timed, then the
workload's bank of queries is solved pass after pass, each pass on freshly
generated instances, until ``--seconds`` is used up.  Every verdict is
checked against the known one and every SAT model is validated.

With ``--trace 0`` the last line of standard output is the JSON result
carrying the end-to-end metrics of ``BENCHMARK.json``, pass times scaled
to the reference host speed that ``speed.py`` samples; with ``--trace 1``
every layer entry point is wrapped in a span (see ``spans.py``) and the
result carries the per-layer metrics instead.  A record with the workload
shape, host facts, every pass and (traced) every span is written to
``.perfbench_out/``.  The exit code is 0 when every answer was correct, 1
after a wrong verdict or model, and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A query that runs longer counts as failed (timed out).
QUERY_LIMIT_S = 90.0
#: No query starts later than this after the process began.
RUN_LIMIT_S = 150.0
#: Set-up is repeated in this many extra processes; ``setup_s`` is the
#: median of these and the run's own set-up.
SETUP_PROBES = 2

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import spans  # noqa: E402  (benchmark-local modules, no solver import)
import speed  # noqa: E402


class QueryTimeout(BaseException):
    """Raised by the alarm inside an overrunning query.

    A ``BaseException`` so that ``except Exception`` blocks inside the
    solver cannot swallow it.
    """


def load_spec() -> Dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(spec: Dict, trace: bool) -> Dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def set_up(name: str, seed: int):
    """Import the solver and generate the workload once, both timed."""
    started = time.perf_counter()
    import workloads

    imported = time.perf_counter()
    workload = workloads.WORKLOADS[name]
    workload.generate(seed)
    generated = time.perf_counter()
    return workload, {"import_s": imported - started, "generate_s": generated - imported}


def probe_set_up(name: str, seed: int) -> Dict[str, float]:
    """Set-up timings of a fresh process (median-of-runs input)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
               "--workload", name, "--seed", str(seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=20, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@contextmanager
def time_limit(seconds: float):
    if seconds <= 0:
        raise QueryTimeout()

    def expire(signum, frame):
        raise QueryTimeout()

    previous = signal.signal(signal.SIGALRM, expire)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def judge(expected: str, result, validate) -> str:
    """``decided``, ``unknown`` or ``wrong`` (bad verdict or invalid model)."""
    status = result.status.value
    if status not in ("sat", "unsat"):
        return "unknown"
    if status != expected or (status == "sat" and not validate()):
        return "wrong"
    return "decided"


class Pass:
    """One timed pass over a workload's bank of queries."""

    def __init__(self, recorder: Optional[spans.SpanRecorder], deadline: float,
                 meter: Optional[speed.Speedometer] = None):
        self.recorder = recorder
        self.deadline = deadline
        self.meter = meter
        self.wall = 0.0
        self.cpu = 0.0
        #: Probe durations taken inside the timed blocks.
        self.probes: List[float] = []
        self.outcomes: List[List[str]] = []
        self.counters = {"sat.decisions": 0, "translate.hits": 0,
                         "translate.misses": 0, "session.clauses_reused": 0}
        self.first_span = self.last_span = 0
        if recorder:
            self.first_span = len(recorder.spans)
            recorder.counts = dict.fromkeys(recorder.counts, 0)

    def close(self) -> None:
        """Take the pass's span range and boundary counts from the recorder."""
        if self.recorder:
            self.last_span = len(self.recorder.spans)
            self.counters.update(self.recorder.counts)

    @contextmanager
    def timed(self):
        """Time the block into the pass totals, leaving out the probes' time."""
        recorder, meter = self.recorder, self.meter
        if recorder:
            recorder.active = True
        if meter:
            spent, first = meter.spent, len(meter.samples)
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if meter:
                self.probes.extend(meter.samples[first:])
                cpu -= meter.spent - spent
                wall -= meter.spent - spent
            self.cpu += cpu
            self.wall += wall
            if recorder:
                recorder.active = False

    @contextmanager
    def query(self):
        """Alarm, timing and (traced) the query span around one call."""
        recorder = self.recorder
        with time_limit(min(QUERY_LIMIT_S, self.deadline - time.perf_counter())):
            with self.timed():
                if recorder is None:
                    yield
                    return
                depth = len(recorder.stack)
                recorder.query = len(self.outcomes)
                record = recorder.open(spans.QUERY)
                try:
                    yield
                finally:
                    recorder.unwind(depth + 1)
                    recorder.close(record)
                    recorder.query = -1

    def record(self, label: str, outcome: str, result=None, detail: str = "") -> None:
        self.outcomes.append([label, outcome])
        if outcome == "wrong":
            print(f"perfbench: WRONG answer on {label}: {detail}", file=sys.stderr)
        if result is not None:
            stats = result.stats
            self.counters["sat.decisions"] += stats.heap_decisions
            self.counters["translate.hits"] += stats.translation_cache_hits
            self.counters["translate.misses"] += stats.translation_cache_misses
            self.counters["session.clauses_reused"] += stats.clauses_reused

    def run_one_shot(self, workload, seed: int) -> None:
        from repro import ABSolver

        items = workload.generate(seed)
        gc.collect()
        for query, problem in items:
            try:
                with self.query():
                    result = ABSolver(workload.solver_config()).solve(problem)
            except QueryTimeout:
                self.record(query.label, "timeout")
                continue
            except Exception:
                traceback.print_exc()
                self.record(query.label, "error")
                continue
            outcome = judge(query.expected, result, lambda: query.validate(problem, result))
            self.record(query.label, outcome, result,
                        f"expected {query.expected}, got {result.status.value}")

    def run_session(self, workload, seed: int) -> None:
        from repro import SolverSession
        from workloads import model_ok

        items = workload.generate(seed)
        gc.collect()
        for family, unroll in items:
            with self.timed():
                session = SolverSession(workload.solver_config())
                unroll.layers[0].apply_to_session(session)
            broken = None
            for depth in range(1, family.max_depth + 1):
                label = f"{family.label}@{depth}"
                if broken:
                    self.record(label, broken)
                    continue
                assumptions = unroll.check_assumptions(depth)
                try:
                    with self.query():
                        unroll.layers[depth].apply_to_session(session)
                        result = session.check(assumptions)
                except QueryTimeout:
                    broken = "timeout"
                    self.record(label, broken)
                    continue
                except Exception:
                    traceback.print_exc()
                    broken = "error"
                    self.record(label, broken)
                    continue
                expected = unroll.expected_status(depth)
                outcome = judge(expected, result, lambda: model_ok(
                    unroll.problem_at_depth(depth), result, assumptions))
                self.record(label, outcome, result,
                            f"expected {expected}, got {result.status.value}")

    @property
    def decided(self) -> int:
        return sum(outcome == "decided" for _, outcome in self.outcomes)

    @property
    def wrong(self) -> int:
        return sum(outcome == "wrong" for _, outcome in self.outcomes)


def run_passes(workload, seed: int, seconds: float, recorder, deadline: float,
               meter: Optional[speed.Speedometer] = None) -> List[Pass]:
    """Run passes until the next one would end after ``seconds`` (at least one)."""
    started = time.perf_counter()
    passes: List[Pass] = []
    durations: List[float] = []
    while True:
        begun = time.perf_counter()
        current = Pass(recorder, deadline, meter)
        if workload.kind == "session":
            current.run_session(workload, seed)
        else:
            current.run_one_shot(workload, seed)
        current.close()
        passes.append(current)
        durations.append(time.perf_counter() - begun)
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(durations) > seconds:
            return passes
        if time.perf_counter() > deadline:
            return passes


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(passes: List[Pass], setups: List[Dict[str, float]]) -> Dict[str, float]:
    """The end-to-end metrics; times are at the reference host speed.

    A pass too short to be probed takes the speed of the whole run, and so
    does set-up, whose few seconds of probes alone would be too noisy.
    """
    attempted = sum(len(p.outcomes) for p in passes)
    run_probes = [d for p in passes for d in p.probes] or speed.sample()
    setup = statistics.median(s["import_s"] + s["generate_s"] for s in setups)
    return {
        "wall_s": statistics.median(
            speed.normalize(p.wall, p.probes or run_probes) for p in passes),
        "setup_s": speed.normalize(setup, run_probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "decided_share": _ratio(sum(p.decided for p in passes), attempted),
    }


#: Layers bypassed by some workload report their self time as a share of
#: the traced wall, so that no reported time is a constant zero.
SHARE_LAYERS = ("refine", "nonlinear", "simplex", "iis", "difference", "bb", "refuter")


def per_layer(passes: List[Pass], recorder: spans.SpanRecorder,
              setups: List[Dict[str, float]], host_probes: List[float]) -> Dict[str, float]:
    """Median over passes of every per-layer number, plus query latency.

    The layer times are raw seconds; ``host.slowdown`` (probe time ÷ the
    reference probe time, taken around the passes) says how slowly the
    host ran meanwhile.
    """
    rows: List[Dict[str, float]] = []
    latencies: List[float] = []
    for current in passes:
        split, queries = spans.layer_split(
            recorder.spans, current.first_span, current.last_span, current.wall)
        latencies.extend(queries)
        row = dict(split)
        row.update(current.counters)
        row["trace.wall_s"] = current.wall
        row["process.cpu_s"] = current.cpu
        row["process.wait_s"] = current.wall - current.cpu
        rows.append(row)
    metrics = {key: statistics.median(row[key] for row in rows) for key in rows[0]}
    metrics["closure_error_s"] = max(row["closure_error_s"] for row in rows)
    metrics["gc.pause_s"] = metrics.pop("gc.self_s")
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.self_share"] = _ratio(metrics[f"{layer}.self_s"], metrics["trace.wall_s"])
    metrics["simplex.per_linear_check"] = _ratio(metrics["simplex.calls"], metrics["linear.calls"])
    metrics["candidates.feasible_ratio"] = _ratio(metrics["linear.feasible"], metrics["linear.calls"])
    metrics["translate.cache_hit_ratio"] = _ratio(
        metrics["translate.hits"], metrics["translate.hits"] + metrics["translate.misses"])
    metrics["query.p50_s"] = statistics.median(latencies) if latencies else 0.0
    metrics["query.samples"] = len(latencies)
    metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
    metrics["setup.generate_s"] = statistics.median(s["generate_s"] for s in setups)
    metrics["host.slowdown"] = statistics.fmean(host_probes) / speed.REFERENCE_PROBE_S
    return metrics


def host_facts() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv, spec: Dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure(name: str, seed: int, seconds: float, trace: bool,
            probes: int = SETUP_PROBES) -> Dict[str, object]:
    """Run one workload; return the result line and the full record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload, setup = set_up(name, seed)
    if trace:
        # The traced run reports raw layer times, so it runs without probes.
        recorder = spans.SpanRecorder()
        host_probes = speed.sample()
        with spans.install(recorder):
            passes = run_passes(workload, seed, seconds, recorder, deadline)
        host_probes += speed.sample()
    else:
        recorder = None
        with speed.Speedometer() as meter:
            passes = run_passes(workload, seed, seconds, None, deadline, meter)
    setups = [setup] + [probe_set_up(name, seed) for _ in range(probes)]
    if trace:
        metrics = per_layer(passes, recorder, setups, host_probes)
    else:
        metrics = end_to_end(passes, setups)
    closure = metrics.get("closure_error_s", 0.0)
    attempted = sum(len(p.outcomes) for p in passes)
    wrong = sum(p.wrong for p in passes)
    closes = closure <= 1e-6
    if not closes:
        print(f"perfbench: layer attribution does not close (error {closure:.3g} s)",
              file=sys.stderr)
    result = {
        "correct": wrong == 0 and closes,
        "attempted": attempted,
        "failed": attempted - sum(p.decided for p in passes),
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "shape": workload.shape(seed),
        "host": host_facts(),
        "seconds": seconds,
        "setups": setups,
        "passes": [{"wall_s": p.wall, "cpu_s": p.cpu,
                    "probe_s": statistics.fmean(p.probes) if p.probes else None,
                    "outcomes": p.outcomes} for p in passes],
        "metrics": metrics,
        "spans": recorder.spans if recorder else [],
    }
    return {"result": result, "record": record}


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: solver sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        _, setup = set_up(args.workload, args.seed)
        print(json.dumps(setup))
        return 0
    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result, record = measured["result"], measured["record"]
    expected_units = units(spec, bool(args.trace))
    metrics = result["metrics"]
    result["metrics"] = {
        name: {"value": metrics[name], "unit": unit} for name, unit in expected_units.items()
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    for name, entry in result["metrics"].items():
        print(f"{name:28s} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
