"""In-memory span tracing around the solver's layer entry points.

:func:`install` wraps each layer's public entry point (listed in
:data:`ENTRY_POINTS`) from outside the package and hooks ``gc.callbacks``.
Every call becomes one span ``[name, start, end, parent, query]`` kept in
memory; the benchmark writes them out when it exits.  :func:`layer_split`
turns one pass's spans into self times, call counts and ratios, and checks
that the attribution closes: the self times plus the unattributed time add
up to the traced wall.
"""

from __future__ import annotations

import gc
import importlib
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence, Tuple

__all__ = ["SpanRecorder", "ENTRY_POINTS", "LAYERS", "install", "layer_split"]

#: (module, class or None for a module function, attribute, layer).
ENTRY_POINTS = (
    ("repro.core.pipeline", "CandidateGenerationStage", "next_candidate", "boolean"),
    ("repro.core.presolve", "PresolveStage", "ensure", "presolve"),
    ("repro.core.pipeline", "TheoryTranslationStage", "plan", "translate"),
    ("repro.core.pipeline", "TheoryTranslationStage", "materialize", "translate"),
    ("repro.core.pipeline", "LinearCheckStage", "check", "linear"),
    ("repro.core.pipeline", "ConflictRefinementStage", "refine_linear", "refine"),
    ("repro.core.pipeline", "ConflictRefinementStage", "refute_interval", "refine"),
    ("repro.core.pipeline", "NonlinearCheckStage", "search", "nonlinear"),
    ("repro.linear.simplex", "SimplexSolver", "check", "simplex"),
    ("repro.linear.iis", None, "extract_iis", "iis"),
    ("repro.core.interface", None, "extract_iis", "iis"),
    ("repro.linear.difference", "DifferenceLogicSolver", "check", "difference"),
    ("repro.linear.branch_bound", "BranchAndBoundSolver", "check", "bb"),
    ("repro.nonlinear.refute", "IntervalRefuter", "refute", "refuter"),
)

#: Every layer that gets a self time; ``gc`` comes from ``gc.callbacks``.
LAYERS = tuple(dict.fromkeys(layer for *_, layer in ENTRY_POINTS)) + ("gc",)

#: Name of the span the benchmark opens around each ``solve``/``check``.
QUERY = "query"

_NAME, _START, _END, _PARENT = range(4)


class SpanRecorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.query = -1
        #: Record garbage collections only inside timed segments.
        self.active = False
        #: Work counted at the boundaries; the benchmark resets it per pass.
        self.counts = {"simplex.pivots": 0, "linear.feasible": 0, "gc.gen2": 0}
        self._gc_open: List[list] = []

    def open(self, name: str) -> list:
        # The record is allocated before its index is taken: a collection
        # triggered by that allocation opens and closes its own span first.
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.query]
        index = len(self.spans)
        self.spans.append(record)
        self.stack.append(index)
        record[_START] = time.perf_counter()
        return record

    def close(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self.stack.pop()

    def unwind(self, depth: int) -> None:
        """Close every span above ``depth`` (after a query was interrupted)."""
        now = time.perf_counter()
        while len(self.stack) > depth:
            record = self.spans[self.stack.pop()]
            if record[_END] == 0.0:
                record[_END] = now

    def on_gc(self, phase: str, info: Dict) -> None:
        if phase == "start":
            if self.active:
                self._gc_open.append(self.open("gc"))
        elif self._gc_open:
            self.close(self._gc_open.pop())
            if info.get("generation") == 2:
                self.counts["gc.gen2"] += 1


def _wrap(recorder: SpanRecorder, layer: str, fn):
    if layer == "simplex":

        def traced(solver, *args, **kwargs):
            # ``pivots`` is reset by every real solve but not by the trivial
            # and warm-cache paths, so zero it to read this call's count.
            solver.pivots = 0
            record = recorder.open(layer)
            try:
                return fn(solver, *args, **kwargs)
            finally:
                recorder.close(record)
                recorder.counts["simplex.pivots"] += solver.pivots

    elif layer == "linear":

        def traced(*args, **kwargs):
            record = recorder.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(record)
            if result.status.value == "feasible":
                recorder.counts["linear.feasible"] += 1
            return result

    else:

        def traced(*args, **kwargs):
            record = recorder.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.close(record)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def install(recorder: SpanRecorder):
    """Wrap every entry point and hook the collector; undo both on exit."""
    patched: List[Tuple[object, str, object]] = []
    try:
        for module_name, owner_name, attr, layer in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            patched.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, layer, original))
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


def _covered(intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def layer_split(
    spans: Sequence[list], first: int, last: int, wall: float
) -> Tuple[Dict[str, float], List[float]]:
    """Per-layer numbers of one pass, and its query span durations.

    ``spans[first:last]`` are the pass's spans and ``wall`` its traced
    wall time.  The self time of a
    span is its duration minus its direct children's durations.
    ``unattributed_s`` is the wall time covered by no layer span (query
    spans excluded), measured independently as the wall minus the union of
    the top-level layer spans; ``closure_error_s`` is how far the self
    times plus ``unattributed_s`` are from the wall, which is zero when the
    spans nest properly.
    """
    count = last - first
    children = [0.0] * count
    for offset in range(count):
        record = spans[first + offset]
        parent = record[_PARENT]
        if parent >= first:
            children[parent - first] += record[_END] - record[_START]
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    iis_probes = 0
    top_level = []
    queries = []
    for offset in range(count):
        record = spans[first + offset]
        name = record[_NAME]
        duration = record[_END] - record[_START]
        if name == QUERY:
            queries.append(duration)
            continue
        self_s[name] += duration - children[offset]
        calls[name] += 1
        parent = record[_PARENT]
        if parent < first or spans[parent][_NAME] == QUERY:
            top_level.append((record[_START], record[_END]))
        elif name == "simplex" and spans[parent][_NAME] == "iis":
            iis_probes += 1
    attributed = sum(self_s.values())
    unattributed = wall - _covered(top_level)
    split = {f"{layer}.self_s": seconds for layer, seconds in self_s.items()}
    split.update({f"{layer}.calls": n for layer, n in calls.items()})
    split["iis.probes"] = iis_probes
    split["unattributed_s"] = unattributed
    split["closure_error_s"] = abs(attributed + unattributed - wall)
    return split, queries
