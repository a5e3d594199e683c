"""Tests for the observability layer: span tracer, typed event bus, metrics
registry, the SolveStatistics facade, bench records, and the overhead guard."""

import io
import json
import statistics
import time

import pytest

from repro import ABProblem, ABSolver, ABSolverConfig, SolverSession, parse_constraint
from repro.core.stats import SolveStatistics
# Aliased: the repo's pytest config collects bench_* names as benchmarks.
from repro.obs.bench_record import bench_record_payload as make_bench_payload
from repro.obs.bench_record import latest_record, load_trajectory, write_bench_record
from repro.obs.events import (
    BlockingClauseAdded,
    CandidateFound,
    CheckStarted,
    CollectingSink,
    ConflictRefined,
    EventBus,
    FramePopped,
    FramePushed,
    LemmaReused,
    TheoryFeasible,
    VerboseSink,
    VerdictReached,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profile import MemoryProfiler, NULL_PROFILER
from repro.obs.progress import (
    ProgressMonitor,
    ProgressRenderer,
    ProgressSnapshot,
    StageStalled,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import NULL_TRACER, SpanTracer


def _sat_problem():
    problem = ABProblem()
    problem.add_clause([1])
    problem.define(1, "real", parse_constraint("x >= 0"))
    return problem


def _unsat_problem():
    problem = ABProblem()
    problem.add_clause([1])
    problem.add_clause([2])
    problem.define(1, "real", parse_constraint("x >= 5"))
    problem.define(2, "real", parse_constraint("x <= 3"))
    return problem


def _all_stage_problem():
    """SAT problem whose solve visits all five stages.

    The first candidate (default phases) leaves variable 1 false, making
    ``x < 4`` clash with the asserted ``x >= 4.5`` — a linear conflict that
    exercises ``refine``; the second candidate carries the nonlinear
    ``x * x >= 25`` to the nonlinear stage and succeeds.
    """
    problem = ABProblem()
    problem.add_clause([2])
    problem.add_clause([3])
    problem.define(1, "real", parse_constraint("x >= 4"))
    problem.define(2, "real", parse_constraint("x >= 4.5"))
    problem.define(3, "real", parse_constraint("x * x >= 25"))
    problem.set_bounds("x", -100.0, 100.0)
    return problem


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
class TestSpanTracer:
    def test_nesting_depth_and_containment(self):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("sibling"):
                pass
        spans = {span.name: span for span in tracer.spans}
        assert spans["outer"].depth == 0
        assert spans["inner"].depth == 1
        assert spans["sibling"].depth == 1
        # Children are contained in the parent's [start, end] interval.
        for child in ("inner", "sibling"):
            assert spans[child].start_us >= spans["outer"].start_us
            assert spans[child].end_us <= spans["outer"].end_us
        assert tracer.open_depth == 0

    def test_exception_marks_span_and_unwinds(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                with tracer.span("broken"):
                    raise ValueError("boom")
        names = [span.name for span in tracer.spans]
        assert names == ["broken", "outer"]
        assert all(span.error for span in tracer.spans)
        assert tracer.open_depth == 0
        # The tracer stays usable after the exception, at depth 0.
        with tracer.span("after"):
            pass
        assert tracer.spans[-1].name == "after"
        assert tracer.spans[-1].depth == 0
        assert not tracer.spans[-1].error

    def test_null_tracer_is_shared_noop(self):
        assert not NULL_TRACER.enabled
        handle_a = NULL_TRACER.span("x", anything=1)
        handle_b = NULL_TRACER.span("y")
        assert handle_a is handle_b  # one preallocated no-op handle
        with handle_a:
            pass
        NULL_TRACER.instant("marker")
        assert NULL_TRACER.spans == ()

    def test_args_and_instants_recorded(self):
        tracer = SpanTracer()
        with tracer.span("linear", backend="simplex", rows=3):
            tracer.instant("push", depth=1)
        assert tracer.spans[0].args == {"backend": "simplex", "rows": 3}
        assert tracer.instants[0].name == "push"
        assert tracer.instants[0].depth == 1  # nested under the open span

    def test_chrome_export_schema(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("outer"):
            with tracer.span("inner", detail=1):
                pass
        tracer.instant("mark")
        target = tmp_path / "trace.json"
        tracer.export_chrome(str(target))
        payload = json.loads(target.read_text())
        events = payload["traceEvents"]
        assert isinstance(events, list) and events
        phases = {event["ph"] for event in events}
        assert phases <= {"X", "i", "M"}
        timed = [event for event in events if event["ph"] != "M"]
        for event in timed:
            assert {"name", "ts", "pid", "tid"} <= set(event)
        timestamps = [event["ts"] for event in timed]
        assert timestamps == sorted(timestamps)  # monotonic ts
        complete = [event for event in timed if event["ph"] == "X"]
        assert all("dur" in event and event["dur"] >= 0 for event in complete)

    def test_jsonl_export(self, tmp_path):
        tracer = SpanTracer()
        with tracer.span("a"):
            pass
        with tracer.span("b", tag=7):
            pass
        target = tmp_path / "spans.jsonl"
        tracer.export_jsonl(str(target))
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert [line["name"] for line in lines] == ["a", "b"]
        assert lines[1]["args"] == {"tag": 7}


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_inactive_until_subscribed(self):
        bus = EventBus()
        assert not bus.active
        sink = CollectingSink()
        bus.subscribe(sink)
        assert bus.active
        bus.unsubscribe(sink)
        assert not bus.active

    def test_typed_subscription(self):
        bus = EventBus()
        verdicts = CollectingSink()
        everything = CollectingSink()
        bus.subscribe(verdicts, VerdictReached)
        bus.subscribe(everything)
        bus.publish(CandidateFound(iteration=0, defined_true=1))
        bus.publish(VerdictReached(status="sat", iterations=1))
        assert [type(e) for e in verdicts.events] == [VerdictReached]
        assert len(everything.events) == 2

    def test_event_payload_matches_fields(self):
        event = BlockingClauseAdded(iteration=3, blocking_size=2, definite=True)
        assert event.payload() == {
            "iteration": 3,
            "blocking_size": 2,
            "definite": True,
        }
        assert event.legacy_name == "theory-conflict"


class TestSolveEventStream:
    def _solve_collecting(self, problem, **config_kwargs):
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe(sink)
        result = ABSolver(ABSolverConfig(event_bus=bus, **config_kwargs)).solve(problem)
        return result, sink.events

    def test_conflict_refinement_loop_ordering(self):
        # Presolve would short-circuit this contradiction before the loop
        # (PresolveInfeasible instead of conflict triples); disable it so the
        # refinement event stream is actually exercised.
        result, events = self._solve_collecting(_unsat_problem(), use_presolve=False)
        assert result.is_unsat
        kinds = [type(event) for event in events]
        assert kinds[0] is CheckStarted
        assert kinds[-1] is VerdictReached
        assert events[-1].status == "unsat"
        # Each conflict is a CandidateFound -> ConflictRefined ->
        # BlockingClauseAdded triple, in that order, same iteration.
        blocks = [e for e in events if isinstance(e, BlockingClauseAdded)]
        assert blocks
        for block in blocks:
            at = events.index(block)
            candidates = [
                e
                for e in events[:at]
                if isinstance(e, CandidateFound) and e.iteration == block.iteration
            ]
            assert candidates, "blocking clause without a preceding candidate"
            refined = [
                e
                for e in events[events.index(candidates[-1]) : at]
                if isinstance(e, ConflictRefined)
            ]
            assert refined, "conflict was blocked without a refinement event"
            assert refined[-1].minimal
        assert not any(isinstance(e, TheoryFeasible) for e in events)

    def test_sat_stream_ends_with_feasible_verdict(self):
        result, events = self._solve_collecting(_sat_problem())
        assert result.is_sat
        assert isinstance(events[-1], VerdictReached) and events[-1].status == "sat"
        feasible = [e for e in events if isinstance(e, TheoryFeasible)]
        assert len(feasible) == 1

    def test_session_lifecycle_events(self):
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe(sink)
        session = SolverSession(ABSolverConfig(event_bus=bus))
        session.assert_problem(_sat_problem())
        session.check()
        session.push()
        session.assert_constraint(parse_constraint("x >= 1"))
        session.check()
        session.pop()
        kinds = [type(e) for e in sink.events]
        assert kinds.count(CheckStarted) == 2
        assert FramePushed in kinds and FramePopped in kinds
        pushed = next(e for e in sink.events if isinstance(e, FramePushed))
        assert pushed.depth == 1
        # A session that learned lemmas earlier reports reuse on later checks.
        reused = [e for e in sink.events if isinstance(e, LemmaReused)]
        for event in reused:
            assert event.count > 0

    def test_legacy_trace_bridge_is_faithful(self):
        """config.trace sees exactly the historical names and payloads."""
        legacy = []
        config = ABSolverConfig(
            trace=lambda name, payload: legacy.append((name, payload)),
            use_presolve=False,
        )
        result = ABSolver(config).solve(_unsat_problem())
        assert result.is_unsat
        names = [name for name, _ in legacy]
        assert set(names) <= {
            "boolean-model",
            "theory-feasible",
            "theory-conflict",
            "verdict",
        }
        assert "boolean-model" in names
        assert names[-1] == "verdict"
        conflict_payloads = [p for n, p in legacy if n == "theory-conflict"]
        assert conflict_payloads
        assert set(conflict_payloads[0]) == {"iteration", "blocking_size", "definite"}

    def test_verbose_sink_format(self):
        stream = io.StringIO()
        sink = VerboseSink(stream)
        sink(CandidateFound(iteration=0, defined_true=2))
        sink(VerdictReached(status="sat", iterations=1))
        lines = stream.getvalue().splitlines()
        assert lines[0] == "  [boolean-model] iteration=0 defined_true=2"
        assert lines[1] == "  [verdict] status=sat iterations=1"


# ----------------------------------------------------------------------
# Traced solves: nested stage spans
# ----------------------------------------------------------------------
class TestTracedSolve:
    def test_all_five_stages_appear_nested(self):
        # Presolve off: it would deduce the conflicting variable's phase up
        # front and skip the refine stage this test wants to observe.
        tracer = SpanTracer()
        config = ABSolverConfig(tracer=tracer, use_presolve=False)
        result = ABSolver(config).solve(_all_stage_problem())
        assert result.is_sat
        names = {span.name for span in tracer.spans}
        assert {"boolean", "translate", "linear", "nonlinear", "refine"} <= names
        check = next(s for s in tracer.spans if s.name == "session.check")
        for span in tracer.spans:
            if span.name in ("boolean", "translate", "linear", "nonlinear", "refine"):
                assert span.depth > check.depth
                assert span.start_us >= check.start_us
                assert span.end_us <= check.end_us + 1.0  # float slack

    def test_backend_names_attached(self):
        tracer = SpanTracer()
        ABSolver(ABSolverConfig(tracer=tracer)).solve(_sat_problem())
        boolean = next(s for s in tracer.spans if s.name == "boolean")
        linear = next(s for s in tracer.spans if s.name == "linear")
        assert boolean.args["backend"] == "cdcl"
        assert linear.args["backend"] == "simplex"

    def test_session_push_pop_traced(self):
        tracer = SpanTracer()
        session = SolverSession(ABSolverConfig(tracer=tracer))
        session.assert_problem(_sat_problem())
        session.check()
        session.push()
        session.pop()
        assert any(mark.name == "session.push" for mark in tracer.instants)
        assert any(span.name == "session.pop" for span in tracer.spans)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_roundtrip(self):
        registry = MetricsRegistry()
        registry.increment("a")
        registry.increment("a", 4)
        assert registry.counter_value("a") == 5
        assert registry.counter_value("missing") == 0

    def test_histogram_percentiles(self):
        histogram = Histogram("t")
        for value in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]:
            histogram.observe(value)
        assert histogram.percentile(50) == 5.0
        assert histogram.percentile(95) == 10.0
        assert histogram.percentile(100) == 10.0
        summary = histogram.summary()
        assert summary["count"] == 10
        assert summary["total"] == pytest.approx(55.0)
        assert summary["p50"] == 5.0

    def test_empty_histogram_summary(self):
        summary = Histogram("t").summary()
        assert summary["count"] == 0
        assert summary["p95"] == 0.0

    def test_registry_merge_is_lossless(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.increment("shared", 1)
        b.increment("shared", 2)
        b.increment("only_b", 7)
        b.observe("lat", 0.5)
        merged = a.merge(b)
        assert merged is a
        assert a.counter_value("shared") == 3
        assert a.counter_value("only_b") == 7
        assert a.histogram("lat").count == 1


# ----------------------------------------------------------------------
# SolveStatistics facade
# ----------------------------------------------------------------------
class TestStatsFacade:
    def test_facade_matches_legacy_dict_output(self):
        """The registry-backed as_dict equals the old flat implementation."""
        stats = SolveStatistics()
        stats.boolean_queries = 3
        stats.linear_checks += 2
        with stats.timed("linear"):
            pass
        with stats.timed("boolean"):
            pass
        expected = {field: 0 for field in SolveStatistics._COUNTERS}
        expected["boolean_queries"] = 3
        expected["linear_checks"] = 2
        expected["time_linear"] = stats.timers["linear"]
        expected["time_boolean"] = stats.timers["boolean"]
        assert stats.as_dict() == expected

    def test_counter_attributes_behave_like_ints(self):
        stats = SolveStatistics()
        assert stats.nonlinear_calls == 0
        stats.nonlinear_calls += 1
        stats.nonlinear_calls += 1
        assert stats.nonlinear_calls == 2
        assert stats.registry.counter_value("nonlinear_calls") == 2

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            SolveStatistics().no_such_counter

    def test_merge_known_counters_and_timers(self):
        a, b = SolveStatistics(), SolveStatistics()
        a.boolean_queries = 2
        b.boolean_queries = 3
        with b.timed("linear"):
            time.sleep(0.001)
        merged = a.merge(b)
        assert merged is a
        assert a.boolean_queries == 5
        assert a.timers["linear"] == pytest.approx(b.timers["linear"])

    def test_merge_preserves_unknown_counters(self):
        """Regression: counters outside _COUNTERS used to vanish on merge."""
        a, b = SolveStatistics(), SolveStatistics()
        b.registry.increment("shard_migrations", 4)
        a.registry.increment("shard_migrations", 1)
        a.merge(b)
        assert a.registry.counter_value("shard_migrations") == 5
        assert a.as_dict()["shard_migrations"] == 5
        # And attribute access picks the registered counter up, facade-style.
        assert a.shard_migrations == 5

    def test_stage_summaries_expose_percentiles(self):
        stats = SolveStatistics()
        for _ in range(4):
            with stats.timed("linear"):
                pass
        summaries = stats.stage_summaries()
        assert summaries["linear"]["count"] == 4
        assert {"p50", "p95", "total", "mean", "max"} <= set(summaries["linear"])

    def test_solve_populates_histograms(self):
        result = ABSolver().solve(_sat_problem())
        summaries = result.stats.stage_summaries()
        assert summaries["boolean"]["count"] >= 1
        assert summaries["linear"]["count"] >= 1
        assert result.stats.as_dict()["time_boolean"] > 0


# ----------------------------------------------------------------------
# Bench records
# ----------------------------------------------------------------------
class TestBenchRecord:
    def test_payload_shape(self):
        result = ABSolver().solve(_sat_problem())
        payload = make_bench_payload(
            "demo", wall_seconds=1.25, stats=result.stats, extra={"depth": 3}
        )
        assert "schema" not in payload  # the trajectory container owns it
        assert payload["benchmark"] == "demo"
        assert payload["wall_seconds"] == 1.25
        assert payload["counters"]["boolean_queries"] >= 1
        assert "boolean" in payload["stages"]
        assert payload["stages"]["boolean"]["samples"] >= 1
        assert payload["extra"] == {"depth": 3}
        assert payload["git_sha"] is None or len(payload["git_sha"]) == 40

    def test_payload_carries_memory_attribution(self):
        payload = make_bench_payload(
            "demo", memory={"sample_every": 8, "stages": {}}
        )
        assert payload["memory"]["sample_every"] == 8

    def test_write_bench_record(self, tmp_path):
        path = write_bench_record("unit_demo", wall_seconds=0.5, directory=str(tmp_path))
        assert path.endswith("BENCH_unit_demo.json")
        container = json.loads((tmp_path / "BENCH_unit_demo.json").read_text())
        assert container["schema"] == 2
        assert container["benchmark"] == "unit_demo"
        latest = container["trajectory"][-1]
        assert latest["benchmark"] == "unit_demo"
        assert latest["wall_seconds"] == 0.5

    def test_appends_accumulate_a_trajectory(self, tmp_path):
        for run in range(3):
            write_bench_record(
                "traj_demo", wall_seconds=float(run), directory=str(tmp_path)
            )
        trajectory = load_trajectory(str(tmp_path / "BENCH_traj_demo.json"))
        assert [entry["wall_seconds"] for entry in trajectory] == [0.0, 1.0, 2.0]
        assert latest_record(str(tmp_path / "BENCH_traj_demo.json"))[
            "wall_seconds"
        ] == 2.0

    def test_legacy_flat_record_still_loads(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({"schema": 1, "benchmark": "old", "wall_seconds": 9.0}))
        assert load_trajectory(str(legacy)) == [
            {"schema": 1, "benchmark": "old", "wall_seconds": 9.0}
        ]
        # Appending migrates the flat record into a trajectory container.
        write_bench_record("old", wall_seconds=1.0, directory=str(tmp_path))
        container = json.loads(legacy.read_text())
        assert container["schema"] == 2
        assert [e["wall_seconds"] for e in container["trajectory"]] == [9.0, 1.0]

    def test_record_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_RECORD_DIR", str(tmp_path / "records"))
        path = write_bench_record("env_demo")
        assert str(tmp_path / "records") in path


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def _dump(self, recorder, reason="requested"):
        stream = io.StringIO()
        recorder.dump_jsonl(stream, reason=reason)
        return [json.loads(line) for line in stream.getvalue().splitlines()]

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=16)
        for index in range(100):
            recorder.note("tick", index=index)
        assert len(recorder) == 16
        assert recorder.recorded == 100
        assert recorder.dropped == 84
        lines = self._dump(recorder)
        header = lines[0]
        assert header["events_recorded"] == 100
        assert header["events_dropped"] == 84
        # Only the newest entries survive, in order.
        notes = [line for line in lines if line["kind"] == "note"]
        assert [note["index"] for note in notes] == list(range(84, 100))

    def test_dump_schema(self):
        bus = EventBus()
        tracer = SpanTracer()
        recorder = FlightRecorder(name="unit").attach(bus=bus, tracer=tracer)
        config = ABSolverConfig(event_bus=bus, tracer=tracer)
        result = ABSolver(config).solve(_sat_problem())
        recorder.bind_stats(result.stats)
        lines = self._dump(recorder, reason="unit-test")
        header = lines[0]
        assert header["kind"] == "flight-header"
        assert header["schema"] == FlightRecorder.SCHEMA_VERSION
        assert header["recorder"] == "unit"
        assert header["reason"] == "unit-test"
        kinds = {line["kind"] for line in lines}
        assert {"flight-header", "event", "span", "counters", "active-spans"} <= kinds
        counters = next(line for line in lines if line["kind"] == "counters")
        assert counters["counters"]["boolean_queries"] >= 1
        assert "samples" in counters["stages"]["boolean"]
        # The solve finished, so no span is still open.
        active = next(line for line in lines if line["kind"] == "active-spans")
        assert active["spans"] == []
        # Every ring entry is timestamped relative to the recorder epoch.
        for line in lines[1:-2]:
            assert line["t"] >= 0

    def test_active_spans_capture_the_stuck_stack(self):
        tracer = SpanTracer()
        recorder = FlightRecorder().attach(tracer=tracer)
        with tracer.span("outer"):
            with tracer.span("inner", backend="simplex"):
                lines = self._dump(recorder, reason="stall")
        active = next(line for line in lines if line["kind"] == "active-spans")
        names = [span["name"] for span in active["spans"]]
        assert names == ["outer", "inner"]
        assert active["spans"][1]["args"] == {"backend": "simplex"}
        assert all(span["age_us"] >= 0 for span in active["spans"])

    def test_reserved_keys_survive_field_collisions(self):
        recorder = FlightRecorder()
        recorder.note("marker", kind="check", t=-1, note="clobber")
        entry = self._dump(recorder)[1]
        assert entry["kind"] == "note"
        assert entry["note"] == "marker"
        assert entry["t"] >= 0

    def test_detach_stops_recording(self):
        bus = EventBus()
        tracer = SpanTracer()
        recorder = FlightRecorder().attach(bus=bus, tracer=tracer)
        bus.publish(VerdictReached(status="sat", iterations=1))
        recorder.detach()
        assert not bus.active
        assert tracer.span_listener is None
        bus.publish(VerdictReached(status="sat", iterations=2))
        with tracer.span("after"):
            pass
        assert recorder.recorded == 1

    def test_dump_to_path(self, tmp_path):
        recorder = FlightRecorder()
        recorder.note("only")
        target = tmp_path / "flight.jsonl"
        recorder.dump_jsonl(str(target), reason="exception")
        lines = [json.loads(line) for line in target.read_text().splitlines()]
        assert lines[0]["reason"] == "exception"
        assert lines[1]["note"] == "only"


# ----------------------------------------------------------------------
# Progress heartbeats and the stall watchdog
# ----------------------------------------------------------------------
class TestProgress:
    def test_first_tick_always_emits(self):
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe(sink, ProgressSnapshot)
        monitor = ProgressMonitor(bus, interval=3600.0)
        monitor.tick("boolean", iteration=0, boolean_queries=1)
        assert monitor.snapshots == 1
        assert sink.events[0].stage == "boolean"

    def test_interval_rate_limits(self):
        clock = FakeClock()
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe(sink, ProgressSnapshot)
        monitor = ProgressMonitor(bus, interval=1.0, clock=clock)
        for _ in range(10):
            monitor.tick("boolean")
            clock.advance(0.3)
        # 3 seconds of ticks at a 1s interval: first + two refreshes... the
        # emission points are t=0, t>=1 (t=1.2), t>=2.2 (t=2.4).
        assert monitor.snapshots == 3
        assert len(sink.events) == 3

    def test_stall_detected_at_tick_time(self):
        clock = FakeClock()
        bus = EventBus()
        stalls = CollectingSink()
        bus.subscribe(stalls, StageStalled)
        monitor = ProgressMonitor(bus, interval=0.0, stall_budget=5.0, clock=clock)
        monitor.tick("linear")
        clock.advance(20.0)
        monitor.tick("linear")
        assert monitor.stalls == 1
        event = stalls.events[0]
        assert event.stage == "linear"
        assert event.stalled_for == pytest.approx(20.0)
        assert event.budget == 5.0

    def test_watchdog_fires_once_per_episode(self):
        bus = EventBus()
        stalls = CollectingSink()
        bus.subscribe(stalls, StageStalled)
        monitor = ProgressMonitor(bus, interval=0.0, stall_budget=0.05)
        monitor.tick("nonlinear")
        monitor.start_watchdog(poll_interval=0.02)
        try:
            deadline = time.monotonic() + 2.0
            while not stalls.events and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            monitor.stop_watchdog()
        assert monitor.stalls == 1  # one alarm, not one per poll
        assert stalls.events[0].stage == "nonlinear"

    def test_pipeline_emits_heartbeat_on_watertank_family(self):
        from repro.benchgen import watertank_unroll_family

        family = watertank_unroll_family(4)
        bus = EventBus()
        sink = CollectingSink()
        bus.subscribe(sink, ProgressSnapshot)
        monitor = ProgressMonitor(bus, interval=0.0)
        config = ABSolverConfig(event_bus=bus, progress_monitor=monitor)
        depth = family.max_depth
        result = ABSolver(config).solve(
            family.problem_at_depth(depth),
            assumptions=family.check_assumptions(depth),
        )
        assert result.status.value in ("sat", "unsat")
        assert monitor.snapshots >= 1
        stages = {event.stage for event in sink.events}
        assert "presolve" in stages or "boolean" in stages

    def test_renderer_formats_both_events(self):
        stream = io.StringIO()
        renderer = ProgressRenderer(stream)
        renderer(
            ProgressSnapshot(
                elapsed=1.5,
                stage="linear",
                iteration=7,
                boolean_queries=9,
                blocking_clauses=4,
                presolve_units=2,
                cube_queue_depth=3,
                lemmas_shared=1,
            )
        )
        renderer(StageStalled(stage="nonlinear", stalled_for=31.0, budget=30.0))
        lines = stream.getvalue().splitlines()
        assert lines[0] == (
            "[progress +1.5s] stage=linear iter=7 boolean=9 blocked=4 "
            "presolve_units=2 queue=3 lemmas=1"
        )
        assert lines[1] == (
            "[stalled] stage=nonlinear no progress for 31.0s (budget 30.0s)"
        )

    def test_validation(self):
        bus = EventBus()
        with pytest.raises(ValueError):
            ProgressMonitor(bus, interval=-1.0)
        with pytest.raises(ValueError):
            ProgressMonitor(bus, stall_budget=0.0)


class FakeClock:
    """Deterministic monotonic clock for rate-limit and stall tests."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# Memory profiler
# ----------------------------------------------------------------------
class TestMemoryProfiler:
    def test_null_profiler_is_shared_noop(self):
        assert not NULL_PROFILER.enabled
        handle_a = NULL_PROFILER.stage("linear")
        handle_b = NULL_PROFILER.stage("boolean")
        assert handle_a is handle_b
        with handle_a:
            pass
        assert NULL_PROFILER.summary() == {}

    def test_attributes_growth_to_stages(self):
        profiler = MemoryProfiler(sample_every=1)
        profiler.start()
        try:
            keep = []
            for _ in range(4):
                with profiler.stage("linear"):
                    keep.append(bytearray(64 * 1024))
                with profiler.stage("boolean"):
                    pass
            summary = profiler.summary()
        finally:
            profiler.stop()
        linear = summary["stages"]["linear"]
        assert linear["entries"] == 4
        assert linear["samples"] == 4
        assert linear["net_kb"] > 4 * 60  # ~64 KiB growth per sampled entry
        assert linear["peak_kb"] >= 60
        assert summary["stages"]["boolean"]["net_kb"] < linear["net_kb"]
        assert summary["sample_every"] == 1

    def test_sampling_counts_every_entry(self):
        profiler = MemoryProfiler(sample_every=8)
        profiler.start()
        try:
            for _ in range(20):
                with profiler.stage("boolean"):
                    pass
            summary = profiler.summary()
        finally:
            profiler.stop()
        boolean = summary["stages"]["boolean"]
        assert boolean["entries"] == 20
        assert boolean["samples"] == 3  # entries 0, 8, 16

    def test_unstarted_profiler_still_counts(self):
        profiler = MemoryProfiler()
        with profiler.stage("linear"):
            pass
        assert profiler.summary()["stages"]["linear"] == {
            "entries": 1,
            "samples": 0,
            "net_kb": 0.0,
            "peak_kb": 0.0,
        }

    def test_solve_with_profiler_lands_in_config(self):
        profiler = MemoryProfiler(sample_every=1)
        profiler.start()
        try:
            config = ABSolverConfig(memory_profiler=profiler)
            result = ABSolver(config).solve(_sat_problem())
            assert result.is_sat
            stages = profiler.summary()["stages"]
        finally:
            profiler.stop()
        assert {"boolean", "linear"} <= set(stages)
        assert stages["boolean"]["entries"] >= 1


# ----------------------------------------------------------------------
# Overhead guard
# ----------------------------------------------------------------------
def _midsize_solve(tracer=None, bus=None):
    """One mid-size difference-logic solve (the FISCHER unroll at depth 6)."""
    from repro.benchgen import fischer_unroll_family

    family = fischer_unroll_family(6)
    config = ABSolverConfig(linear="difference", tracer=tracer, event_bus=bus)
    result = ABSolver(config).solve(
        family.problem_at_depth(6), assumptions=family.check_assumptions(6)
    )
    assert result.status.value == (family.expected_status(6) or result.status.value)
    return result


def _interleaved_ratio(run_a, run_b, trials=7):
    """Median B/A wall ratio over interleaved trials, and A's median wall.

    Each trial times A and B back to back, alternating which goes first,
    so a host slowing down or speeding up mid-test moves both sides of a
    pair alike instead of biasing one side's best-of.
    """

    def timed(run):
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    ratios, walls_a = [], []
    for trial in range(trials):
        if trial % 2:
            wall_b, wall_a = timed(run_b), timed(run_a)
        else:
            wall_a, wall_b = timed(run_a), timed(run_b)
        ratios.append(wall_b / wall_a)
        walls_a.append(wall_a)
    return statistics.median(ratios), statistics.median(walls_a)


class TestOverheadGuard:
    def test_null_span_fast_path_is_cheap(self):
        """The disabled tracer's span() must be allocation-free and fast."""
        started = time.perf_counter()
        for _ in range(100_000):
            with NULL_TRACER.span("stage"):
                pass
        elapsed = time.perf_counter() - started
        # Generous even for slow CI runners: 100k no-op spans in under half
        # a second is ~5us per span worst case; typical is ~0.2us.
        assert elapsed < 0.5

    def test_tracing_overhead_within_five_percent(self):
        """Instrumentation cost on a mid-size solve stays under 5%.

        The traced-off path is the shipped default (NULL_TRACER + inactive
        bus); running the same solve fully traced within 5% of it bounds
        what the instrumentation hooks can cost — and a fortiori the
        traced-off solve sits within 5% of pre-instrumentation wall time.
        Interleaved A/B trials with a median ratio cancel load drift.
        """
        _midsize_solve()  # warm imports and code paths
        ratio, untraced = _interleaved_ratio(
            lambda: _midsize_solve(), lambda: _midsize_solve(SpanTracer())
        )
        # 5% relative margin plus a small absolute cushion so a sub-50ms
        # baseline does not turn scheduler jitter into flakes.
        assert ratio <= 1.05 + 0.005 / untraced, (
            f"traced/untraced median ratio {ratio:.3f} on a "
            f"{untraced * 1000:.1f}ms solve exceeds the 5% instrumentation budget"
        )

    def test_recorder_overhead_within_five_percent(self):
        """A flight recorder on a fully traced solve stays under 5% extra.

        Both sides run traced with an active bus, so the comparison
        isolates what the *recorder* adds: one ring append per event and
        per span close.  Interleaved A/B trials with a median ratio cancel
        load drift.
        """
        _midsize_solve()  # warm imports and code paths

        def traced_solve(recorded):
            tracer = SpanTracer()
            bus = EventBus()
            if recorded:
                FlightRecorder().attach(bus=bus, tracer=tracer)
            else:
                bus.subscribe(lambda event: None)  # bus active either way
            _midsize_solve(tracer, bus)

        ratio, plain = _interleaved_ratio(
            lambda: traced_solve(False), lambda: traced_solve(True)
        )
        assert ratio <= 1.05 + 0.005 / plain, (
            f"recorded/plain median ratio {ratio:.3f} on a "
            f"{plain * 1000:.1f}ms solve exceeds the 5% flight-recorder budget"
        )
