"""The staged ABsolver pipeline: the control loop as composable stages.

Historically :meth:`repro.core.solver.ABSolver.solve` was one ~550-line
monolith.  Its five conceptual steps (paper, Sec. 1 and Sec. 4) are now
explicit stage objects behind :class:`repro.core.interface.SolverStage`:

* :class:`CandidateGenerationStage` — query the Boolean solver for the next
  candidate assignment and feed blocking clauses back to it;
* :class:`TheoryTranslationStage` — turn a Boolean assignment into theory
  constraint branches, with memoized definition-literal -> linear-row and
  branch -> :class:`~repro.linear.lp.LinearSystem` caches;
* :class:`LinearCheckStage` — decide the linear constituent (tracking
  warm-start reuse when the configured LP adapter supports it);
* :class:`NonlinearCheckStage` — route surviving candidates through the
  configured nonlinear solver list;
* :class:`ConflictRefinementStage` — explain failures (IIS refinement,
  interval refutation) as blocking clauses.

:class:`SolvePipeline` wires the stages into the classic lazy-SMT loop.  It
is deliberately *query-scoped but state-persistent*: running a second query
against the same pipeline reuses the Boolean solver's clause database and
activities plus every translation cache, which is exactly what
:class:`repro.core.session.SolverSession` builds its ``push``/``pop``
incremental interface on.  The one-shot :class:`~repro.core.solver.ABSolver`
uses a single-use pipeline and therefore behaves as before.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPResult, LPStatus
from ..nonlinear.auglag import NLPStatus
from ..nonlinear.refute import IntervalRefuter, RefuteStatus
from ..obs.events import (
    BlockingClauseAdded,
    CandidateFound,
    ConflictRefined,
    EventBus,
    IntervalRefuted,
    LegacyTraceSink,
    NonlinearFallback,
    PresolveInfeasible,
    TheoryFeasible,
    VerdictReached,
)
from ..obs.profile import NULL_PROFILER
from ..obs.trace import NULL_TRACER
from ..sat.cnf import CNF, Assignment
from .circuit import Circuit
from .expr import Constraint, Relation
from .interface import (
    BooleanSolverInterface,
    LinearSolverInterface,
    NonlinearSolverInterface,
    Refinement,
    SolverStage,
)
from .presolve import BoundStore, PresolveStage
from .problem import ABProblem
from .registry import (
    DOMAIN_BOOLEAN,
    DOMAIN_LINEAR,
    DOMAIN_NONLINEAR,
    SolverRegistry,
    default_registry,
)
from .stats import SolveStatistics
from .tristate import TT

__all__ = [
    "BranchItem",
    "TranslationPlan",
    "TheoryVerdict",
    "CandidateGenerationStage",
    "TheoryTranslationStage",
    "LinearCheckStage",
    "NonlinearCheckStage",
    "ConflictRefinementStage",
    "SolvePipeline",
    "complete_theory_model",
    "full_blocking_clause",
]

#: A lemma callback: receives the blocking clause and whether the conflict
#: was definite, and returns the clause that should actually reach the
#: Boolean solver (sessions guard it with an activation literal).
LemmaHook = Callable[[List[int], bool], List[int]]


class BranchItem:
    """One constraint of a branch: the constraint, its origin tag, a cache key.

    ``tag`` is the signed Boolean definition literal the constraint came
    from; ``key`` additionally disambiguates which negation alternative of
    an equation was chosen (``(-var, alt_index)``), so it is usable as a
    memoization key for the translated linear row.
    """

    __slots__ = ("constraint", "tag", "key")

    def __init__(self, constraint: Constraint, tag: int, key: object):
        self.constraint = constraint
        self.tag = tag
        self.key = key

    def __repr__(self) -> str:
        return f"BranchItem(tag={self.tag}, key={self.key!r})"


class TranslationPlan:
    """Outcome of splitting an assignment: fixed items plus equality splits."""

    __slots__ = ("fixed", "splits")

    def __init__(self, fixed: List[BranchItem], splits: List[List[BranchItem]]):
        self.fixed = fixed
        self.splits = splits

    def branches(self):
        """Iterate the fully-split branches (cartesian product of choices)."""
        if not self.splits:
            yield list(self.fixed)
            return
        for choice in itertools.product(*self.splits):
            yield self.fixed + list(choice)


class TheoryVerdict:
    """Outcome of checking one Boolean assignment against theory."""

    __slots__ = ("feasible", "theory_model", "blocking", "definite")

    def __init__(
        self,
        feasible: bool,
        theory_model: Optional[Dict[str, float]] = None,
        blocking: Optional[List[int]] = None,
        definite: bool = True,
    ):
        self.feasible = feasible
        self.theory_model = theory_model
        self.blocking = blocking
        self.definite = definite  # False when incompleteness was involved


# ----------------------------------------------------------------------
# Module-level helpers shared by the stages and the legacy entry points
# ----------------------------------------------------------------------
def complete_theory_model(
    problem: ABProblem,
    theory_model: Dict[str, float],
    domains: Mapping[str, str],
) -> None:
    """Give unconstrained theory variables a (bound-respecting) value."""
    for var in problem.theory_variables():
        if var in theory_model:
            if domains.get(var) == "int":
                theory_model[var] = float(round(theory_model[var]))
            continue
        low, high = problem.bounds.get(var, (None, None))
        value = 0.0
        if low is not None and value < low:
            value = float(low)
        if high is not None and value > high:
            value = float(high)
        if domains.get(var) == "int":
            value = float(math.ceil(value)) if low is not None and value == low else float(round(value))
        theory_model[var] = value


def full_blocking_clause(problem: ABProblem, alpha: Assignment) -> List[int]:
    """Fallback: block the assignment restricted to defined variables."""
    clause = []
    for var in problem.definitions:
        value = alpha.get(var, False)
        clause.append(-var if value else var)
    if not clause:  # no definitions: block the full assignment
        clause = [(-var if value else var) for var, value in alpha.items()]
    return clause


def _integral_ok(
    point: Mapping[str, float], domains: Mapping[str, str], tolerance: float
) -> bool:
    for var, value in point.items():
        if domains.get(var) == "int" and abs(value - round(value)) > tolerance:
            return False
    return True


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
class CandidateGenerationStage(SolverStage):
    """Stage 1: produce Boolean candidate assignments, absorb blocking clauses.

    The wrapped Boolean adapter persists across queries — learned clauses,
    VSIDS activities, and saved phases all carry over, which is the main
    clause-reuse lever of incremental sessions.  ``reset`` therefore does
    *not* drop the solver; :meth:`rebind` does, when a session decides the
    solver can no longer be trusted (it currently never needs to).
    """

    name = "boolean"

    #: Kernel counters mirrored into :class:`SolveStatistics` after each
    #: solve call (delta-synced, like ``warm_start_hits`` in the linear
    #: stage, because the adapter reports cumulative totals).
    _KERNEL_COUNTERS = ("heap_decisions", "clauses_reduced", "clauses_minimized_lits")

    def __init__(self, pipeline: "SolvePipeline", boolean: BooleanSolverInterface):
        self._pipeline = pipeline
        self._boolean = boolean
        self._cnf: Optional[CNF] = None
        self._kernel_seen = {name: 0 for name in self._KERNEL_COUNTERS}

    @property
    def solver(self) -> BooleanSolverInterface:
        return self._boolean

    def prepare(self, cnf: CNF, frozen: Sequence[int]) -> None:
        """Bind the CNF fed to the adapter's first solve and freeze variables."""
        if self._cnf is None:
            self._boolean.set_frozen_variables(frozen)
            self._cnf = cnf

    @property
    def prepared(self) -> bool:
        return self._cnf is not None

    def next_candidate(self, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._cnf is None:
            raise RuntimeError("CandidateGenerationStage.prepare was never called")
        pipeline = self._pipeline
        stats = pipeline.stats
        with stats.timed(self.name), pipeline.tracer.span(
            self.name, backend=self._boolean.name
        ), pipeline.profiler.stage(self.name):
            alpha = self._boolean.solve(self._cnf, assumptions)
        stats.boolean_queries += 1
        kernel_stats = getattr(self._boolean, "statistics", None)
        if kernel_stats:
            seen = self._kernel_seen
            for name in self._KERNEL_COUNTERS:
                total = kernel_stats.get(name, 0)
                if total > seen[name]:
                    setattr(stats, name, getattr(stats, name) + total - seen[name])
                    seen[name] = total
        return alpha

    def block(self, clause: Sequence[int]) -> None:
        # Blocking clauses are not implied by the formula; mark them
        # protected so clause-database reduction can never delete them.
        self._boolean.add_clause(clause, protected=True)

    def reset(self) -> None:
        """No-op: the clause database stays valid across structural changes
        (session lemmas are guarded by activation literals instead)."""


class TheoryTranslationStage(SolverStage):
    """Stage 2: Boolean assignment -> theory constraint branches, memoized.

    Two cache layers:

    * ``(tag, constraint fingerprint)`` -> :class:`LinearConstraint` (the
      expensive ``linear_form`` normalization) plus the
      negation-alternative lists.  Rows are content-addressed via
      :meth:`Constraint.fingerprint`, so they survive definition
      retraction/redefinition: a re-pushed definition with the same
      content hits immediately, while changed content simply keys a new
      entry;
    * full branch key -> built :class:`LinearSystem` (rows, bound rows,
      domains) ready to hand to the linear stage.

    Both survive across queries of a session; ``reset`` clears everything,
    :meth:`invalidate_definitions` drops the per-variable alternative
    lists of retracted definitions, and any definition/bounds change
    clears the branch layer (domains or bound rows may have shifted under
    it).
    """

    name = "translate"

    BRANCH_CACHE_LIMIT = 8192
    ROW_CACHE_LIMIT = 8192

    def __init__(self, pipeline: "SolvePipeline"):
        self._pipeline = pipeline
        self._rows: Dict[object, LinearConstraint] = {}
        self._alternatives: Dict[int, List[Constraint]] = {}
        self._branches: Dict[Tuple[object, ...], Tuple[LinearSystem, List[Tuple[Constraint, int]]]] = {}
        self._bound_rows: Optional[List[LinearConstraint]] = None

    # -- assignment splitting ------------------------------------------
    def plan(self, problem: ABProblem, alpha: Assignment) -> TranslationPlan:
        stats = self._pipeline.stats
        fixed: List[BranchItem] = []
        splits: List[List[BranchItem]] = []
        for var, definition in problem.definitions.items():
            phase = alpha.get(var, False)
            if phase:
                fixed.append(BranchItem(definition.constraint, var, var))
            else:
                alternatives = self._alternatives.get(var)
                if alternatives is None:
                    alternatives = definition.constraint.negated_alternatives()
                    self._alternatives[var] = alternatives
                if len(alternatives) == 1:
                    fixed.append(BranchItem(alternatives[0], -var, -var))
                else:
                    stats.equality_splits += 1
                    splits.append(
                        [
                            BranchItem(alt, -var, (-var, index))
                            for index, alt in enumerate(alternatives)
                        ]
                    )
        return TranslationPlan(fixed, splits)

    # -- branch materialization ----------------------------------------
    def materialize(
        self,
        problem: ABProblem,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
    ) -> Tuple[LinearSystem, List[Tuple[Constraint, int]]]:
        """Build (or fetch) the linear system + nonlinear list of a branch."""
        stats = self._pipeline.stats
        key = tuple(item.key for item in branch)
        cached = self._branches.get(key)
        if cached is not None:
            stats.translation_cache_hits += 1
            return cached

        linear_rows: List[LinearConstraint] = []
        nonlinear: List[Tuple[Constraint, int]] = []
        for item in branch:
            if item.constraint.is_linear():
                row_key = (item.tag, item.constraint.fingerprint())
                row = self._rows.get(row_key)
                if row is None:
                    stats.translation_cache_misses += 1
                    row = LinearConstraint.from_constraint(item.constraint, tag=item.tag)
                    if len(self._rows) >= self.ROW_CACHE_LIMIT:
                        self._rows.clear()
                    self._rows[row_key] = row
                else:
                    stats.translation_cache_hits += 1
                linear_rows.append(row)
            else:
                nonlinear.append((item.constraint, item.tag))

        system = LinearSystem(linear_rows, {v: d for v, d in domains.items()})
        for row in self._get_bound_rows(problem):
            system.add(row)
        if len(self._branches) >= self.BRANCH_CACHE_LIMIT:
            self._branches.clear()
        self._branches[key] = (system, nonlinear)
        return system, nonlinear

    def _get_bound_rows(self, problem: ABProblem) -> List[LinearConstraint]:
        """Variable bounds become untagged rows of every LP.

        When the presolve stage holds an active :class:`BoundStore`, its
        tightened (still implied) bounds replace the raw declared box —
        this is the single point through which the shared store reaches
        the linear engines.
        """
        if self._bound_rows is not None:
            self._pipeline.stats.bound_rows_cache_hits += 1
            return self._bound_rows
        store = self._pipeline.presolve.active_store()
        if store is not None:
            rows = store.bound_rows()
        else:
            rows = []
            for var, (low, high) in problem.bounds.items():
                if low is not None:
                    rows.append(
                        LinearConstraint({var: Fraction(1)}, Relation.GE, Fraction(low).limit_denominator(10**9))
                    )
                if high is not None:
                    rows.append(
                        LinearConstraint({var: Fraction(1)}, Relation.LE, Fraction(high).limit_denominator(10**9))
                    )
        self._bound_rows = rows
        return rows

    # -- invalidation ---------------------------------------------------
    def invalidate_definitions(self, variables: Sequence[int]) -> None:
        """Drop per-variable caches of retracted (popped) definitions.

        Translated rows are content-addressed (tag + constraint
        fingerprint) and stay valid across retraction — a redefinition
        with different content keys a fresh entry on its own.
        """
        for var in variables:
            self._alternatives.pop(var, None)
        self._branches.clear()

    def definitions_changed(self) -> None:
        """New definitions may retype shared variables: branch layer is stale."""
        self._branches.clear()

    def bounds_changed(self) -> None:
        self._bound_rows = None
        self._branches.clear()

    def reset(self) -> None:
        self._rows.clear()
        self._alternatives.clear()
        self._branches.clear()
        self._bound_rows = None


class LinearCheckStage(SolverStage):
    """Stage 3: decide the linear constituent of a branch."""

    name = "linear"

    def __init__(self, pipeline: "SolvePipeline", linear: LinearSolverInterface):
        self._pipeline = pipeline
        self._linear = linear
        self._counters_seen: Dict[str, int] = {}

    @property
    def solver(self) -> LinearSolverInterface:
        return self._linear

    def check(self, system: LinearSystem) -> LPResult:
        pipeline = self._pipeline
        stats = pipeline.stats
        with stats.timed(self.name), pipeline.tracer.span(
            self.name, backend=self._linear.name, rows=len(system.rows)
        ), pipeline.profiler.stage(self.name):
            result = self._linear.check(system)
        stats.linear_checks += 1
        self.sync_counters()
        return result

    def sync_counters(self) -> None:
        """Add the adapter's engine-counter growth to the statistics.

        The adapter reports cumulative totals (``work_counters``), so only
        the delta since the last sync is added, as for the kernel counters.
        """
        work_counters = getattr(self._linear, "work_counters", None)
        if work_counters is None:
            return
        stats = self._pipeline.stats
        seen = self._counters_seen
        for name, total in work_counters().items():
            if total > seen.get(name, 0):
                setattr(stats, name, getattr(stats, name) + total - seen.get(name, 0))
                seen[name] = total

    def reset(self) -> None:
        invalidate = getattr(self._linear, "invalidate_caches", None)
        if invalidate is not None:
            invalidate()


class NonlinearCheckStage(SolverStage):
    """Stage 4: route a surviving candidate through the nonlinear solver list.

    "at each of those steps a list of solvers is used, if more than one
    solver is enabled for some domain and the preceding solvers thereof
    failed to provide a decent result" (Sec. 4).
    """

    name = "nonlinear"

    def __init__(
        self,
        pipeline: "SolvePipeline",
        chain: Sequence[NonlinearSolverInterface],
        tolerance: float,
    ):
        self._pipeline = pipeline
        self._chain = list(chain)
        self._tolerance = tolerance

    def search(
        self,
        problem: ABProblem,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
        hint: Mapping[str, float],
    ) -> Optional[Dict[str, float]]:
        """Find a theory point satisfying the whole branch, or None."""
        pipeline = self._pipeline
        stats = pipeline.stats
        bus = pipeline.bus
        all_constraints = [item.constraint for item in branch]
        hints = [dict(hint)]
        store = pipeline.presolve.active_store()
        declared = (
            store.float_box(problem.bounds) if store is not None else problem.bounds
        )
        bounds = problem.effective_bounds()
        for solver in self._chain:
            if not solver.applicable(all_constraints):
                continue
            with stats.timed(self.name), pipeline.tracer.span(
                self.name, backend=solver.name, constraints=len(all_constraints)
            ), pipeline.profiler.stage(self.name):
                nlp = solver.solve(
                    all_constraints, bounds=declared or bounds, hints=hints
                )
            stats.nonlinear_calls += 1
            if nlp.status is NLPStatus.SAT and _integral_ok(
                nlp.point, domains, self._tolerance
            ):
                return dict(nlp.point)
            # "the preceding solvers thereof failed to provide a decent
            # result" (Sec. 4): the loop falls through to the next solver.
            if bus.active:
                bus.publish(
                    NonlinearFallback(solver=solver.name, status=nlp.status.value)
                )
        return None

    def reset(self) -> None:
        """No-op: nonlinear solvers are stateless between calls."""


class ConflictRefinementStage(SolverStage):
    """Stage 5: explain a failed branch as a (small) blocking clause.

    Linear conflicts go through the LP adapter's IIS refinement; nonlinear
    candidates that local search could not settle are attacked with the
    interval branch-and-prune refuter, whose success certifies the conflict
    (and whose failure marks the query incomplete).
    """

    name = "refine"

    def __init__(
        self,
        pipeline: "SolvePipeline",
        linear: LinearSolverInterface,
        refine_conflicts: bool,
        use_interval_refuter: bool,
    ):
        self._pipeline = pipeline
        self._linear = linear
        self._refine_conflicts = refine_conflicts
        self._use_interval_refuter = use_interval_refuter

    def refine_linear(self, system: LinearSystem, failed: LPResult) -> Refinement:
        """Explain ``failed``, the linear check's verdict on ``system``."""
        pipeline = self._pipeline
        stats = pipeline.stats
        if not self._refine_conflicts:
            tags = [row.tag for row in system.rows if isinstance(row.tag, int)]
            return Refinement(tags, minimal=False)
        with stats.timed(self.name), pipeline.tracer.span(
            self.name, kind="iis", backend=self._linear.name
        ), pipeline.profiler.stage(self.name):
            refinement = self._linear.refine(system, failed)
        pipeline.linear.sync_counters()
        stats.conflicts_refined += 1
        if pipeline.bus.active:
            pipeline.bus.publish(
                ConflictRefined(
                    minimal=refinement.minimal,
                    core_size=len(refinement.conflicting_tags),
                )
            )
        return refinement

    def refute_interval(
        self, problem: ABProblem, branch: Sequence[BranchItem]
    ) -> Tuple[bool, List[int]]:
        """Try to certify infeasibility of the branch over interval boxes.

        Variables with declared bounds use them; undeclared variables get an
        unbounded interval (so a refutation remains globally sound).
        """
        if not self._use_interval_refuter:
            return False, []
        pipeline = self._pipeline
        constraints = [item.constraint for item in branch]
        variables = sorted({v for c in constraints for v in c.variables()})
        store = pipeline.presolve.active_store()
        box = (
            store.float_box(problem.bounds)
            if store is not None
            else problem.bounds
        )
        bounds: Dict[str, Tuple[float, float]] = {}
        for var in variables:
            low, high = box.get(var, (None, None))
            bounds[var] = (
                low if low is not None else -math.inf,
                high if high is not None else math.inf,
            )
        refuter = IntervalRefuter(
            **(getattr(pipeline.config, "refuter_options", None) or {})
        )
        with pipeline.stats.timed(self.name), pipeline.tracer.span(
            self.name, kind="interval", constraints=len(constraints)
        ), pipeline.profiler.stage(self.name):
            result = refuter.refute(constraints, bounds)
        if result.status is RefuteStatus.REFUTED:
            pipeline.stats.interval_refutations += 1
            if pipeline.bus.active:
                pipeline.bus.publish(IntervalRefuted(branch_size=len(branch)))
            return True, [item.tag for item in branch]
        return False, []

    def reset(self) -> None:
        """No-op: refinement holds no problem-structure state."""


class _BlockingTemplate:
    """One cached definite blocking clause plus the context it relies on.

    ``content`` snapshots the ``(var, domain, constraint fingerprint)``
    triple of every definition the clause mentions (canonical content
    digests — see :meth:`Constraint.fingerprint`); ``bounds_key`` /
    ``domains_key``
    fingerprint the global bound rows and variable typings (untagged bound
    rows participate in Farkas cores, and integer typings steer
    branch-and-bound, so both are part of the derivation).  A template is
    only replayed when all three still match the live problem.
    """

    __slots__ = ("clause", "content", "bounds_key", "domains_key")

    def __init__(
        self,
        clause: List[int],
        content: Tuple,
        bounds_key: frozenset,
        domains_key: frozenset,
    ):
        self.clause = clause
        self.content = content
        self.bounds_key = bounds_key
        self.domains_key = domains_key


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------
class SolvePipeline:
    """Candidate -> translate -> linear -> nonlinear -> refine, in a loop.

    One pipeline owns one set of substrate solvers and caches; it may serve
    many queries against the *same* evolving problem (that is what sessions
    do).  ``stats`` is swapped per query by the owner.
    """

    def __init__(
        self,
        config,  # ABSolverConfig; untyped to avoid a circular import
        registry: Optional[SolverRegistry] = None,
        stats: Optional[SolveStatistics] = None,
    ):
        self.config = config
        self.registry = registry or default_registry
        self.stats = stats or SolveStatistics()
        #: Span tracer shared by every stage; the no-op fast path unless the
        #: config carries a real :class:`repro.obs.trace.SpanTracer`.
        self.tracer = getattr(config, "tracer", None) or NULL_TRACER
        #: Typed event bus.  A private bus with no sinks is inactive, and
        #: publishers check :attr:`EventBus.active` before building events.
        self.bus = getattr(config, "event_bus", None) or EventBus()
        #: Per-stage memory attribution (:mod:`repro.obs.profile`); the
        #: shared no-op unless the config carries a started
        #: :class:`~repro.obs.profile.MemoryProfiler` (``--profile-memory``).
        self.profiler = getattr(config, "memory_profiler", None) or NULL_PROFILER
        #: Optional :class:`~repro.obs.progress.ProgressMonitor`, ticked
        #: once per control-loop iteration (``--progress`` heartbeats and
        #: the stall watchdog both hang off it).
        self.progress = getattr(config, "progress_monitor", None)
        legacy_trace = getattr(config, "trace", None)
        if legacy_trace is not None:
            self.bus.subscribe(LegacyTraceSink(legacy_trace))
        #: Optional :class:`repro.core.verdict_cache.VerdictCache` consulted
        #: by :meth:`run_query` before stage 0 and populated on completion.
        self.verdict_cache = getattr(config, "verdict_cache", None)

        boolean_options = dict(config.boolean_options)
        # A config-level seed reaches CDCL-family solvers as reproducible
        # VSIDS/phase diversification; other Boolean backends (plain DPLL)
        # take no seed parameter and stay deterministic.
        seed = getattr(config, "seed", None)
        if seed is not None and config.boolean in ("cdcl", "cdcl-pre", "lsat"):
            boolean_options.setdefault("seed", seed)
        # Kernel tuning knobs ride the same path: config-level values are
        # defaults the caller's explicit boolean_options still override.
        if config.boolean in ("cdcl", "cdcl-pre", "lsat"):
            for knob in ("clause_decay", "reduce_interval"):
                value = getattr(config, knob, None)
                if value is not None:
                    boolean_options.setdefault(knob, value)
        boolean: BooleanSolverInterface = self.registry.create(
            DOMAIN_BOOLEAN, config.boolean, **boolean_options
        )
        linear: LinearSolverInterface = self.registry.create(
            DOMAIN_LINEAR, config.linear, **config.linear_options
        )
        chain: List[NonlinearSolverInterface] = [
            self.registry.create(DOMAIN_NONLINEAR, name, **config.nonlinear_options)
            for name in config.nonlinear
        ]

        self.presolve = PresolveStage(self)
        self.candidate = CandidateGenerationStage(self, boolean)
        self.translation = TheoryTranslationStage(self)
        self.linear = LinearCheckStage(self, linear)
        self.nonlinear = NonlinearCheckStage(self, chain, config.tolerance)
        self.refinement = ConflictRefinementStage(
            self,
            linear,
            refine_conflicts=config.refine_conflicts,
            use_interval_refuter=config.use_interval_refuter,
        )
        self.stages: Tuple[SolverStage, ...] = (
            self.presolve,
            self.candidate,
            self.translation,
            self.linear,
            self.nonlinear,
            self.refinement,
        )
        #: Memoized defined-variable order of :meth:`fallback_blocking_clause`
        #: (``None`` = recompute; invalidated on definition changes).
        self._blocking_vars: Optional[Tuple[int, ...]] = None
        #: Blocking-clause templates: sorted-clause key -> template record.
        #: Templates remember the content (definitions, bounds, domains) they
        #: were derived from and are revalidated on every match, so entries
        #: survive push/pop retraction without ever going unsound.
        self._templates: Dict[Tuple[int, ...], _BlockingTemplate] = {}
        #: Memoized bounds fingerprint (None = recompute after a change);
        #: a bare frozenset of declared bounds, or (declared, store
        #: fingerprint) while a presolve store is active.
        self._bounds_key: Optional[object] = None
        #: Memoized variable-domains fingerprint (invalidated with defs).
        self._domains_key: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # Structural-change hooks (driven by SolverSession)
    # ------------------------------------------------------------------
    def prepare(self, cnf: CNF, frozen: Sequence[int]) -> None:
        self.candidate.prepare(cnf, frozen)

    def definitions_added(self) -> None:
        self.translation.definitions_changed()
        self.presolve.invalidate()
        self._blocking_vars = None
        self._domains_key = None

    def definitions_removed(self, variables: Sequence[int]) -> None:
        # The linear warm-start caches deliberately survive this hook: cached
        # points are revalidated with exact arithmetic before every reuse, so
        # retracting definitions can only cause a failed validation, never a
        # wrong verdict.  (Clearing them here is why warm_start_hits used to
        # flatline at 0 across session push/pop sequences.)
        self.translation.invalidate_definitions(variables)
        self.presolve.invalidate()
        self._blocking_vars = None
        self._domains_key = None

    def bounds_changed(self) -> None:
        # Same reasoning as definitions_removed: warm-start entries are keyed
        # on row structure and revalidated exactly, so bound shifts are safe.
        self.translation.bounds_changed()
        self.presolve.invalidate()
        self._bounds_key = None

    def clauses_changed(self) -> None:
        """The CNF gained or lost clauses: presolve's deductions are stale.

        Translation caches are untouched — they key on definition content,
        not on the clause set.
        """
        self.presolve.invalidate()

    def presolve_store_changed(self) -> None:
        """The :class:`BoundStore` recomputed with different deductions."""
        self.translation.bounds_changed()
        self._bounds_key = None

    # ------------------------------------------------------------------
    # Candidate blocking (hot path of all-models enumeration)
    # ------------------------------------------------------------------
    def fallback_blocking_clause(self, problem: ABProblem, alpha: Assignment) -> List[int]:
        """Like :func:`full_blocking_clause`, with the defined-variable
        enumeration memoized per problem (every blocked candidate of an
        all-models run walks the same definition set)."""
        variables = self._blocking_vars
        if variables is None:
            self._blocking_vars = variables = tuple(problem.definitions)
        if not variables:  # no definitions: block the full assignment
            return [(-var if value else var) for var, value in alpha.items()]
        get = alpha.get
        return [(-var if get(var, False) else var) for var in variables]

    # ------------------------------------------------------------------
    # Blocking-clause templates
    # ------------------------------------------------------------------

    #: Cap on remembered blocking-clause templates.
    BLOCKING_TEMPLATE_LIMIT = 4096

    def _bounds_fingerprint(self, problem: ABProblem):
        if self._bounds_key is None:
            declared = frozenset(
                (var, low, high) for var, (low, high) in problem.bounds.items()
            )
            # Fingerprint against the *ensured* store, not whatever is
            # cached: templates are often registered right after a formula
            # change (import_lemmas before check), when the cached store is
            # stale — keying those against declared bounds only would make
            # them unmatchable once the store is recomputed.  ensure() is
            # a cache hit whenever the store is fresh, and a no-op (None)
            # when the stage is disabled.
            store = (
                self.presolve.ensure(problem) if self.presolve.enabled else None
            )
            if store is not None:
                # Templates derived under a store must never replay once
                # its deductions change (the clause may have leaned on a
                # tightened bound row).
                self._bounds_key = (declared, store.fingerprint())
            else:
                self._bounds_key = declared
        return self._bounds_key

    def _domains_fingerprint(self, problem: ABProblem) -> frozenset:
        if self._domains_key is None:
            self._domains_key = frozenset(problem.variable_domains().items())
        return self._domains_key

    def _template_content(
        self, problem: ABProblem, clause: Sequence[int]
    ) -> Optional[Tuple]:
        """Snapshot the definitions a clause mentions (None = not templatable).

        Constraints enter as canonical fingerprints (memoized per
        :class:`Constraint`), so revalidation on a template match is a
        string comparison instead of a deep structural equality.
        """
        content = []
        for literal in clause:
            definition = problem.definitions.get(abs(literal))
            if definition is None:
                return None
            content.append(
                (abs(literal), definition.domain, definition.constraint.fingerprint())
            )
        return tuple(content)

    def register_blocking_template(
        self, problem: ABProblem, clause: Sequence[int]
    ) -> None:
        """Remember a *definite* blocking clause for candidate short-cutting.

        Called for every definite theory lemma (local derivations and
        foreign lemmas imported by sessions).  Registration is idempotent
        per sorted clause; clauses mentioning non-definition variables are
        skipped (their derivation context cannot be fingerprinted).
        """
        key = tuple(sorted(clause))
        if key in self._templates:
            return
        content = self._template_content(problem, clause)
        if content is None:
            return
        if len(self._templates) >= self.BLOCKING_TEMPLATE_LIMIT:
            self._templates.clear()
        self._templates[key] = _BlockingTemplate(
            list(clause),
            content,
            self._bounds_fingerprint(problem),
            self._domains_fingerprint(problem),
        )

    def match_blocking_template(
        self, problem: ABProblem, alpha: Assignment
    ) -> Optional[List[int]]:
        """A remembered clause the candidate violates, revalidated, or None.

        A template applies when every literal of its clause is false under
        ``alpha`` (the clause would have pruned this candidate, but the
        Boolean solver no longer holds it — it was retracted by a ``pop``,
        or it was learned by another worker/session) *and* its recorded
        derivation context still matches the live problem.  A hit lets
        :meth:`run_query` re-block the candidate without any theory check.
        """
        if not self._templates:
            return None
        get = alpha.get
        bounds_key = self._bounds_fingerprint(problem)
        domains_key = self._domains_fingerprint(problem)
        for template in self._templates.values():
            violated = all(
                get(abs(literal), False) is (literal < 0)
                for literal in template.clause
            )
            if not violated:
                continue
            if template.bounds_key != bounds_key:
                continue
            if template.domains_key != domains_key:
                continue
            if self._template_content(problem, template.clause) != template.content:
                continue
            return list(template.clause)
        return None

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def run_query(
        self,
        problem: ABProblem,
        assumptions: Sequence[int] = (),
        record_certificate: bool = False,
        on_lemma: Optional[LemmaHook] = None,
        prior_incomplete: bool = False,
        poll: Optional[Callable[[], bool]] = None,
        cache_assumptions: Optional[Sequence[int]] = None,
    ):
        """One full solve over the current problem; returns an ``ABResult``.

        ``on_lemma`` lets the owner intercept every theory lemma before it
        reaches the Boolean solver (sessions guard lemmas with activation
        literals there); ``prior_incomplete`` carries a session's memory of
        still-active indefinite blocks, which downgrade an exhausted Boolean
        space from UNSAT to UNKNOWN.

        ``poll`` is called once per control-loop iteration; returning False
        abandons the query with an UNKNOWN "cancelled" result.  Parallel
        workers use it both as their cancellation check and as the point
        where foreign lemmas received from other workers are injected.

        When the config carries a :class:`VerdictCache`, the cache is
        consulted before stage 0 — keyed on the canonical problem
        fingerprint plus ``cache_assumptions`` (the user-level literals of
        the query; sessions pass them explicitly so their activation
        literals stay out of the key).  Cached UNSAT verdicts return
        immediately; cached SAT witnesses are revalidated against the live
        problem first, and on a failed revalidation the entry's definite
        lemmas still seed the blocking-template store.  Completed SAT/UNSAT
        runs are written back; certificate runs bypass the cache entirely
        so the recorded lemma stream stays self-contained.

        Progress is published as typed events on :attr:`bus` (including the
        bridged legacy ``config.trace`` callback); nothing is built when no
        sink is attached.
        """
        from .expr import intern_counters

        stats = self.stats
        intern_before = intern_counters()["hits"]
        cache = self.verdict_cache
        key = None
        lemma_sink: Optional[List[List[int]]] = None
        try:
            if cache is not None and not record_certificate:
                if cache_assumptions is None:
                    cache_assumptions = tuple(assumptions)
                key = cache.key(problem, cache_assumptions, self.config.tolerance)
                entry = cache.lookup(key)
                if entry is not None:
                    replay = self._replay_cached_verdict(
                        problem, entry, cache_assumptions
                    )
                    if replay is not None:
                        stats.verdict_cache_hits += 1
                        return replay
                stats.verdict_cache_misses += 1
                lemma_sink = []
            result = self._run_query_inner(
                problem,
                assumptions,
                record_certificate,
                on_lemma,
                prior_incomplete,
                poll,
                lemma_sink,
            )
            if key is not None:
                self._store_verdict(cache, key, problem, result, lemma_sink)
            return result
        finally:
            stats.intern_hits += intern_counters()["hits"] - intern_before

    #: Cap on definite lemmas carried into one verdict-cache entry.
    VERDICT_CACHE_LEMMA_LIMIT = 512

    def _replay_cached_verdict(self, problem, entry, assumptions):
        """Turn a cache entry into a result, or None when it cannot be trusted.

        UNSAT entries are definitive (only complete runs store them, and a
        key match means the same query semantics).  SAT entries must agree
        with the requested assumptions and pass the live
        :meth:`ABProblem.check_model` at the current tolerance; failing
        that, the entry's definite lemmas are imported as blocking
        templates and ``None`` falls the query through to a normal solve.
        """
        from .solver import ABModel, ABResult, ABStatus

        stats = self.stats
        bus = self.bus
        if entry.status == "unsat":
            if bus.active:
                bus.publish(VerdictReached(status="unsat", iterations=0))
            return ABResult(ABStatus.UNSAT, stats=stats, reason="verdict-cache")
        boolean = dict(entry.boolean)
        theory = dict(entry.theory)
        assumptions_ok = all(
            boolean.get(abs(literal), False) is (literal > 0)
            for literal in assumptions
        )
        if assumptions_ok and problem.check_model(
            boolean, theory, tolerance=self.config.tolerance
        ):
            if bus.active:
                bus.publish(VerdictReached(status="sat", iterations=0))
            return ABResult(ABStatus.SAT, model=ABModel(boolean, theory), stats=stats)
        for clause in entry.lemmas:
            self.register_blocking_template(problem, list(clause))
        return None

    def _store_verdict(self, cache, key, problem, result, lemma_sink) -> None:
        from .solver import ABStatus

        lemmas = lemma_sink or ()
        if result.status is ABStatus.SAT and result.model is not None:
            # Keep only problem-level Boolean variables: a session's model
            # may mention its activation literals, which are process-local
            # and meaningless to other consumers of the entry.
            num_vars = problem.cnf.num_vars
            boolean = {
                var: value
                for var, value in result.model.boolean.items()
                if var <= num_vars
            }
            cache.store(key, "sat", boolean, result.model.theory, lemmas)
        elif result.status is ABStatus.UNSAT:
            cache.store(key, "unsat", lemmas=lemmas)
        else:
            return
        self.stats.verdict_cache_stores += 1

    def _run_query_inner(
        self,
        problem: ABProblem,
        assumptions: Sequence[int] = (),
        record_certificate: bool = False,
        on_lemma: Optional[LemmaHook] = None,
        prior_incomplete: bool = False,
        poll: Optional[Callable[[], bool]] = None,
        lemma_sink: Optional[List[List[int]]] = None,
    ):
        """The control loop proper (stages 0-5); see :meth:`run_query`."""
        from .solver import ABModel, ABResult, ABStatus

        config = self.config
        stats = self.stats
        bus = self.bus
        progress = self.progress

        # Stage 0: formula-level presolve.  Computed once per structural
        # state of the problem (sessions invalidate on assert/define/pop),
        # the store short-circuits provably-infeasible stacks, seeds the
        # Boolean solver with deduced unit facts, and hands tightened
        # bounds to every later stage.
        store = self.presolve.ensure(problem)
        if progress is not None:
            # First heartbeat before the control loop: even a query the
            # presolve stage settles outright emits >= 1 snapshot.
            progress.tick("presolve", presolve_units=stats.presolve_units_emitted)
        if store is not None:
            if store.infeasible:
                if bus.active:
                    bus.publish(PresolveInfeasible(reason=store.infeasible_reason))
                    bus.publish(VerdictReached(status="unsat", iterations=0))
                return ABResult(
                    ABStatus.UNSAT,
                    stats=stats,
                    reason=f"presolve: {store.infeasible_reason}",
                )
            if store.units and not store.emitted:
                store.emitted = True
                for literal in store.units:
                    stats.presolve_units_emitted += 1
                    unit = [literal]
                    solver_clause = (
                        on_lemma(list(unit), True) if on_lemma is not None else unit
                    )
                    self.candidate.block(solver_clause)
        context = None
        if store is not None and store.contentful:
            context = "presolve"
        set_context = getattr(self.linear.solver, "set_warm_context", None)
        if set_context is not None:
            set_context(context)

        domains = problem.variable_domains()
        circuit = Circuit.from_ab_problem(problem)
        complete = not prior_incomplete
        lemmas: List[List[int]] = []

        for iteration in range(config.max_iterations):
            if progress is not None:
                # Same cadence as the poll cancellation hook: one tick per
                # control-loop iteration keeps the watchdog fed and the
                # heartbeat counters fresh without touching the stage hot
                # paths.
                progress.tick(
                    "boolean",
                    iteration=iteration,
                    boolean_queries=stats.boolean_queries,
                    blocking_clauses=stats.blocking_clauses,
                    presolve_units=stats.presolve_units_emitted,
                )
            if poll is not None and not poll():
                if bus.active:
                    bus.publish(
                        VerdictReached(status="unknown", iterations=iteration)
                    )
                return ABResult(ABStatus.UNKNOWN, stats=stats, reason="cancelled")
            alpha = self.candidate.next_candidate(assumptions)
            if alpha is None:
                if complete:
                    certificate = None
                    if record_certificate:
                        from .certify import UnsatCertificate

                        certificate = UnsatCertificate(lemmas)
                    if bus.active:
                        bus.publish(
                            VerdictReached(status="unsat", iterations=iteration)
                        )
                    return ABResult(
                        ABStatus.UNSAT, stats=stats, certificate=certificate
                    )
                if bus.active:
                    bus.publish(
                        VerdictReached(status="unknown", iterations=iteration)
                    )
                return ABResult(
                    ABStatus.UNKNOWN,
                    stats=stats,
                    reason="Boolean space exhausted, but some nonlinear "
                    "candidates could be neither satisfied nor refuted",
                )
            if bus.active:
                bus.publish(
                    CandidateFound(
                        iteration=iteration,
                        defined_true=sum(
                            1 for var in problem.definitions if alpha.get(var, False)
                        ),
                    )
                )
            template = self.match_blocking_template(problem, alpha)
            if template is not None:
                # A previously-derived (and revalidated) lemma already rules
                # this candidate out: re-block it without running stages 2-5.
                stats.blocking_template_hits += 1
                stats.blocking_clauses += 1
                if (
                    lemma_sink is not None
                    and len(lemma_sink) < self.VERDICT_CACHE_LEMMA_LIMIT
                ):
                    lemma_sink.append(list(template))
                if bus.active:
                    bus.publish(
                        BlockingClauseAdded(
                            iteration=iteration,
                            blocking_size=len(template),
                            definite=True,
                        )
                    )
                if record_certificate:
                    lemmas.append(list(template))
                solver_clause = (
                    on_lemma(list(template), True) if on_lemma is not None else template
                )
                self.candidate.block(solver_clause)
                continue
            verdict = self.check_candidate(problem, alpha, domains)
            if verdict.feasible:
                if bus.active:
                    bus.publish(TheoryFeasible(iteration=iteration))
                model = ABModel(alpha, verdict.theory_model or {})
                # Final guards: the circuit's output pin must be tt under the
                # Boolean assignment, and the combined model must pass the
                # tolerance-aware definition check.
                output = circuit.evaluate_boolean_assignment(alpha)
                if output is not TT:  # pragma: no cover - internal invariant
                    raise AssertionError("circuit output is not tt for an accepted model")
                if not problem.check_model(
                    model.boolean, model.theory, tolerance=config.tolerance
                ):  # pragma: no cover - internal invariant
                    raise AssertionError("accepted model failed the definition check")
                if bus.active:
                    bus.publish(
                        VerdictReached(status="sat", iterations=iteration + 1)
                    )
                return ABResult(ABStatus.SAT, model=model, stats=stats)
            if not verdict.definite:
                complete = False
            blocking = verdict.blocking or self.fallback_blocking_clause(problem, alpha)
            if verdict.definite:
                self.register_blocking_template(problem, blocking)
                if (
                    lemma_sink is not None
                    and len(lemma_sink) < self.VERDICT_CACHE_LEMMA_LIMIT
                ):
                    lemma_sink.append(list(blocking))
            stats.blocking_clauses += 1
            if bus.active:
                bus.publish(
                    BlockingClauseAdded(
                        iteration=iteration,
                        blocking_size=len(blocking),
                        definite=verdict.definite,
                    )
                )
            if record_certificate:
                lemmas.append(list(blocking))
            solver_clause = (
                on_lemma(list(blocking), verdict.definite)
                if on_lemma is not None
                else blocking
            )
            self.candidate.block(solver_clause)
        return ABResult(
            ABStatus.UNKNOWN, stats=stats, reason="iteration budget exhausted"
        )

    # ------------------------------------------------------------------
    # Theory checking (stages 2-5 over one candidate)
    # ------------------------------------------------------------------
    def check_candidate(
        self,
        problem: ABProblem,
        alpha: Assignment,
        domains: Optional[Mapping[str, str]] = None,
    ) -> TheoryVerdict:
        """Check one Boolean assignment against the arithmetic definitions."""
        if domains is None:
            domains = problem.variable_domains()
        stats = self.stats
        with stats.timed(self.translation.name), self.tracer.span(
            self.translation.name, phase="plan"
        ), self.profiler.stage(self.translation.name):
            plan = self.translation.plan(problem, alpha)
        if len(plan.splits) > self.config.max_equality_splits:
            raise RuntimeError(
                f"{len(plan.splits)} simultaneous negated equalities exceed the "
                f"configured split budget ({self.config.max_equality_splits})"
            )

        refinements: List[Refinement] = []
        indefinite = False
        for branch in plan.branches():
            outcome = self._check_branch(problem, branch, domains)
            if outcome.feasible:
                return outcome
            if not outcome.definite:
                indefinite = True
            if outcome.blocking is not None:
                refinements.append(
                    Refinement([-l for l in outcome.blocking], minimal=True)
                )

        if indefinite:
            return TheoryVerdict(False, definite=False)
        # All branches failed definitely.  The union of branch cores forms a
        # sound conflict over the original assignment (see DESIGN.md).
        union_tags = sorted({tag for r in refinements for tag in r.conflicting_tags})
        if union_tags:
            return TheoryVerdict(False, blocking=[-t for t in union_tags])
        return TheoryVerdict(False)

    def _check_branch(
        self,
        problem: ABProblem,
        branch: Sequence[BranchItem],
        domains: Mapping[str, str],
    ) -> TheoryVerdict:
        """Check one fully-split constraint conjunction."""
        with self.stats.timed(self.translation.name), self.tracer.span(
            self.translation.name, phase="materialize", branch=len(branch)
        ), self.profiler.stage(self.translation.name):
            system, nonlinear_constraints = self.translation.materialize(
                problem, branch, domains
            )

        lp_result = self.linear.check(system)
        if lp_result.status is not LPStatus.FEASIBLE:
            refinement = self.refinement.refine_linear(system, lp_result)
            return TheoryVerdict(False, blocking=refinement.blocking_clause())

        if not nonlinear_constraints:
            theory_model = {var: float(value) for var, value in lp_result.point.items()}
            complete_theory_model(problem, theory_model, domains)
            return TheoryVerdict(True, theory_model=theory_model)

        # Nonlinear treatment: the candidate must satisfy the *whole* branch.
        hint = {var: float(value) for var, value in lp_result.point.items()}
        point = self.nonlinear.search(problem, branch, domains, hint)
        if point is not None:
            complete_theory_model(problem, point, domains)
            return TheoryVerdict(True, theory_model=point)

        # Local search failed: try to *refute* the branch with intervals.
        refuted, core_tags = self.refinement.refute_interval(problem, branch)
        if refuted:
            return TheoryVerdict(False, blocking=[-t for t in core_tags])
        return TheoryVerdict(False, definite=False)
