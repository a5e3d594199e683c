"""Tests of the benchmark itself, at tiny shapes.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import spans
import speed
from repro.benchgen import (
    div_operator_problem,
    fischer_problem,
    fischer_unsat_problem,
    nonlinear_unsat_problem,
    watertank_unroll_family,
)
from repro.benchgen.bmc import UnrollFamily
from workloads import WORKLOADS, Family, Query, Workload

SPEC = run.load_spec()

TINY = Workload(
    "tiny",
    {},
    [
        Query("FISCHER1", lambda: fischer_problem(1), "sat"),
        Query("FISCHER2-unsat", lambda: fischer_unsat_problem(2), "unsat"),
        Query("nonlinear_unsat", nonlinear_unsat_problem, "unsat"),
        Query("div_operator", div_operator_problem, "sat"),
    ],
)
TINY_SESSION = Workload("tiny_session", {}, [Family("watertank-unroll", watertank_unroll_family, 2)])


@pytest.fixture
def registry(monkeypatch, tmp_path):
    """Serve tiny workloads under every benchmark name; records go to tmp."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "probe_set_up", lambda name, seed: {"import_s": 1.0, "generate_s": 0.5})
    for name in list(WORKLOADS):
        tiny = TINY_SESSION if WORKLOADS[name].kind == "session" else TINY
        monkeypatch.setitem(WORKLOADS, name, tiny)
    return tmp_path


@pytest.fixture
def tiny(monkeypatch):
    """Register the tiny workloads under their own names."""
    monkeypatch.setitem(WORKLOADS, TINY.name, TINY)
    monkeypatch.setitem(WORKLOADS, TINY_SESSION.name, TINY_SESSION)


def _main(capsys, *argv):
    code = run.main(["--seconds", "0", *argv])
    out, err = capsys.readouterr()
    return code, json.loads(out.strip().splitlines()[-1]), err


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["t12_flagship", "bmc_session"])
def test_every_metric_prints_with_its_unit(registry, capsys, workload, trace, key):
    code, result, err = _main(capsys, "--workload", workload, "--trace", str(trace))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float))
        assert any(line.split()[0] == name and line.split()[-1] == metric["unit"]
                   for line in err.splitlines()), name
    record = json.loads((registry / f"{workload}-seed0-trace{trace}.json").read_text())
    assert record["shape"]["instances"] and record["host"]["nproc"] >= 1


def test_end_to_end_values_on_a_clean_run(registry, capsys):
    _, result, _ = _main(capsys, "--workload", "t2_difference")
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert metrics["decided_share"] == 1.0
    assert metrics["wall_s"] > 0 and metrics["peak_rss_mb"] > 0
    (only,) = json.loads((registry / "t2_difference-seed0-trace0.json").read_text())["passes"]
    # The median of own set-up and two probes, at the reference host speed.
    assert metrics["setup_s"] == pytest.approx(speed.normalize(1.5, [only["probe_s"]]))


def test_injected_wrong_verdict_is_caught_and_counted(registry, capsys):
    wrong = Workload("wrong", {}, TINY.items[:1] + [
        Query("FISCHER1-flipped", lambda: fischer_problem(1), "unsat")])
    WORKLOADS["t12_flagship"] = wrong
    code, result, err = _main(capsys, "--workload", "t12_flagship")
    assert code == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert result["metrics"]["decided_share"]["value"] == 0.5
    assert "WRONG answer on FISCHER1-flipped" in err


def test_invalid_model_counts_as_wrong(monkeypatch):
    bad = Workload("bad", {}, [
        Query("FISCHER1", lambda: fischer_problem(1), "sat", lambda problem, result: False)])
    monkeypatch.setitem(WORKLOADS, bad.name, bad)
    measured = run.measure("bad", 0, 0, False, probes=0)
    assert measured["result"]["correct"] is False
    assert measured["record"]["passes"][0]["outcomes"] == [["FISCHER1", "wrong"]]


def test_session_wrong_verdict_is_caught(monkeypatch, tiny):
    original = UnrollFamily.expected_status
    flipped = {"sat": "unsat", "unsat": "sat"}
    monkeypatch.setattr(UnrollFamily, "expected_status",
                        lambda self, depth: flipped[original(self, depth)] if depth == 2
                        else original(self, depth))
    measured = run.measure(TINY_SESSION.name, 0, 0, False, probes=0)
    outcomes = measured["record"]["passes"][0]["outcomes"]
    assert outcomes == [["watertank-unroll@1", "decided"], ["watertank-unroll@2", "wrong"]]
    assert measured["result"]["correct"] is False


@pytest.mark.parametrize("workload", [TINY, TINY_SESSION])
def test_timeouts_count_as_failed_but_not_wrong(monkeypatch, tiny, workload):
    monkeypatch.setattr(run, "QUERY_LIMIT_S", 1e-9)
    measured = run.measure(workload.name, 0, 0, False, probes=0)
    result = measured["result"]
    assert result["correct"] is True
    assert result["failed"] == result["attempted"] == workload.attempts_per_pass
    assert result["metrics"]["decided_share"] == 0.0


@pytest.mark.parametrize("workload", [TINY, TINY_SESSION])
def test_traced_self_times_close(tiny, workload):
    measured = run.measure(workload.name, 0, 0, True, probes=0)
    metrics = measured["record"]["metrics"]
    assert measured["result"]["correct"]
    assert metrics["closure_error_s"] <= 1e-6
    attributed = sum(metrics["gc.pause_s" if layer == "gc" else f"{layer}.self_s"]
                     for layer in spans.LAYERS)
    assert attributed + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], abs=1e-6)
    assert metrics["unattributed_s"] >= 0
    assert metrics["query.samples"] == workload.attempts_per_pass
    assert metrics["boolean.calls"] >= workload.attempts_per_pass
    assert metrics["simplex.calls"] > 0 and metrics["refine.calls"] > 0


def test_tracing_leaves_the_solver_unwrapped(tiny):
    from repro.linear.simplex import SimplexSolver

    before = SimplexSolver.check
    run.measure(TINY.name, 0, 0, True, probes=0)
    assert SimplexSolver.check is before


def test_setup_probe_times_a_fresh_process():
    probe = run.probe_set_up("t2_difference", 0)
    assert set(probe) == {"import_s", "generate_s"}
    assert probe["import_s"] > 0 and probe["generate_s"] > 0


def test_speedometer_probes_busy_code_and_keeps_its_time_apart():
    with speed.Speedometer(period=0.005) as meter:
        deadline = time.process_time() + 0.2
        while time.process_time() < deadline:
            pass
    assert len(meter.samples) >= 10
    assert meter.spent == pytest.approx(sum(meter.samples))
    # Twice the reference probe time means the host ran at half speed.
    assert speed.normalize(3.0, [2 * speed.REFERENCE_PROBE_S]) == pytest.approx(1.5)


def test_untraced_passes_are_probed_and_normalized(tiny):
    measured = run.measure(TINY_SESSION.name, 0, 0, False, probes=0)
    (only,) = measured["record"]["passes"]
    assert only["probe_s"] > 0
    assert measured["result"]["metrics"]["wall_s"] == pytest.approx(
        speed.normalize(only["wall_s"], [only["probe_s"]]))


def test_layer_split_detects_spans_that_do_not_nest():
    # [name, start, end, parent, query]; the second linear span overlaps the
    # first although neither is the other's parent.
    nested = [["query", 0.0, 10.0, -1, 0], ["linear", 1.0, 4.0, 0, 0],
              ["simplex", 2.0, 3.0, 1, 0], ["boolean", 5.0, 6.0, 0, 0]]
    split, queries = spans.layer_split(nested, 0, len(nested), 10.0)
    assert queries == [10.0]
    assert (split["linear.self_s"], split["simplex.self_s"]) == (2.0, 1.0)
    assert split["unattributed_s"] == 6.0 and split["closure_error_s"] == 0.0
    overlapping = nested + [["linear", 3.5, 4.5, 0, 0]]
    split, _ = spans.layer_split(overlapping, 0, len(overlapping), 10.0)
    assert split["closure_error_s"] == pytest.approx(0.5)


def test_run_without_the_solver_sources_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "t12_flagship",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
