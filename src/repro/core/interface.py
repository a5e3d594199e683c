"""The solver interface layer (paper, Sec. 4 / Fig. 4).

"To ensure extensibility to new solvers the communication between the tools
is restricted to the well-defined interface that provides the circuit, a
data structure for returning solutions, and a structure to support
refinement of conflicts detected by a solver."

This module defines those three things for each domain, plus adapters that
wrap the concrete substrate solvers (CDCL/DPLL/all-SAT, simplex/B&B,
Newton/augmented-Lagrangian/scipy) behind them.  The registry
(:mod:`repro.core.registry`) instantiates adapters by name, which is how a
user selects "the most appropriate solver for a given task".
"""

from __future__ import annotations

import abc
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..linear.branch_bound import BranchAndBoundSolver
from ..linear.iis import extract_iis
from ..linear.lp import LinearConstraint, LinearSystem
from ..linear.simplex import LPResult, LPStatus, SimplexSolver
from ..nonlinear.auglag import AugmentedLagrangianSolver, Bounds, NLPResult, NLPStatus
from ..nonlinear.newton import NewtonSolver
from ..sat.allsat import AllSATSolver
from ..sat.cdcl import CDCLSolver
from ..sat.cnf import CNF, Assignment
from ..sat.dpll import DPLLSolver
from .expr import Constraint

__all__ = [
    "Refinement",
    "SolverStage",
    "BooleanSolverInterface",
    "LinearSolverInterface",
    "NonlinearSolverInterface",
    "CDCLBooleanAdapter",
    "DPLLBooleanAdapter",
    "LSATBooleanAdapter",
    "SimplexLinearAdapter",
    "BranchBoundLinearAdapter",
    "NewtonNonlinearAdapter",
    "AugLagNonlinearAdapter",
    "ScipyNonlinearAdapter",
    "UnsupportedTheoryError",
]


class UnsupportedTheoryError(Exception):
    """A solver was handed constraints outside its supported theory.

    This is the error CVC Lite and MathSAT raise (behaviourally) on the
    paper's nonlinear benchmarks — "both CVC Lite and MathSAT rejected the
    problems due to the nonlinear arithmetic inequalities" (Sec. 5.1).
    """


class Refinement:
    """Conflict-refinement structure returned by theory solvers.

    ``conflicting_tags`` are the origin tags (signed Boolean literals) of an
    infeasible constraint subset; the control loop turns them into a
    blocking clause.  ``minimal`` records whether the subset is an IIS or a
    coarse full-assignment conflict (the refinement ablation toggles this).
    """

    def __init__(self, conflicting_tags: Sequence[int], minimal: bool):
        self.conflicting_tags = list(conflicting_tags)
        self.minimal = minimal

    def blocking_clause(self) -> List[int]:
        """Clause forbidding the conflicting combination: OR of negations."""
        return [-tag for tag in self.conflicting_tags]

    def __repr__(self) -> str:
        kind = "IIS" if self.minimal else "full"
        return f"Refinement({kind}, tags={self.conflicting_tags})"


# ----------------------------------------------------------------------
# Abstract interfaces
# ----------------------------------------------------------------------
class SolverStage(abc.ABC):
    """One stage of the staged solve pipeline (:mod:`repro.core.pipeline`).

    The control loop is decomposed into small stage objects — candidate
    generation, theory translation, linear check, nonlinear check, conflict
    refinement — each owning its substrate solver(s) and any memoized state.
    The protocol is deliberately thin: a stage advertises a ``name`` (used
    for per-stage timers in :class:`~repro.core.stats.SolveStatistics`) and
    must be able to ``reset`` — dropping every piece of state that depends
    on the *structure* of the problem (definitions, bounds), which sessions
    call when a ``pop`` retracts assertions a cache may have baked in.
    Cross-query state that stays valid (e.g. a persistent CDCL clause
    database) survives ``reset`` only where the concrete stage documents it.
    """

    #: Stage label; also the timer key under which the pipeline accounts
    #: the stage's wall clock.
    name = "stage"

    @abc.abstractmethod
    def reset(self) -> None:
        """Invalidate problem-structure-dependent state."""


class BooleanSolverInterface(abc.ABC):
    """Boolean-domain solver contract: single models and (optionally) all."""

    name = "boolean"

    @abc.abstractmethod
    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        """One satisfying assignment, or None."""

    @abc.abstractmethod
    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        """Add a (blocking/refinement) clause for subsequent solve calls.

        ``protected`` clauses survive the CDCL kernel's clause-database
        reduction unconditionally.  External adds default to protected
        because blocking clauses are *not* implied by the formula — deleting
        one would resurrect an already-enumerated model.  Pass
        ``protected=False`` only for redundant lemmas that are safe to drop.
        """

    def set_frozen_variables(self, variables: Sequence[int]) -> None:
        """Declare variables whose values carry external semantics.

        The control loop announces the arithmetic-definition variables here
        before the first solve; preprocessing adapters must not eliminate
        them (their values route theory constraints).  Default: ignored.
        """

    def all_models(self, cnf: CNF) -> Iterator[Assignment]:
        """All satisfying assignments; default is not supported.

        Solvers without native all-SAT raise; the control loop then falls
        back to its own bookkeeping (iterated blocking clauses), exactly the
        trade-off the paper describes for non-LSAT solvers.
        """
        raise NotImplementedError(f"{type(self).__name__} has no native all-SAT")

    @property
    def supports_all_models(self) -> bool:
        return type(self).all_models is not BooleanSolverInterface.all_models


class LinearSolverInterface(abc.ABC):
    """Linear-domain solver contract: feasibility + conflict refinement."""

    name = "linear"

    @abc.abstractmethod
    def check(self, system: LinearSystem) -> LPResult:
        """Decide feasibility; on success the result carries a point."""

    @abc.abstractmethod
    def refine(self, system: LinearSystem, failed: LPResult) -> Refinement:
        """Explain the infeasibility that ``check(system)`` returned as
        ``failed``, reading its certificate instead of re-solving."""


class NonlinearSolverInterface(abc.ABC):
    """Nonlinear-domain solver contract: local feasibility search."""

    name = "nonlinear"

    @abc.abstractmethod
    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        """Search for a satisfying point; UNKNOWN when none was found."""

    def applicable(self, constraints: Sequence[Constraint]) -> bool:
        """Whether this solver wants to try the given subset (solver lists)."""
        return True


# ----------------------------------------------------------------------
# Boolean adapters
# ----------------------------------------------------------------------
class CDCLBooleanAdapter(BooleanSolverInterface):
    """zChaff stand-in: incremental CDCL."""

    name = "cdcl"

    def __init__(self, **options):
        self._options = options
        self._solver: Optional[CDCLSolver] = None
        #: Clauses received before the first solve (presolve unit emission
        #: happens before the solver instance exists); replayed at creation.
        self._pending: List[Tuple[List[int], bool]] = []

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._solver is None:
            self._solver = CDCLSolver(cnf, **self._options)
            for clause, protected in self._pending:
                self._solver.add_clause(clause, protected=protected)
            self._pending.clear()
        return self._solver.solve(assumptions)

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        if self._solver is None:
            self._pending.append((list(literals), protected))
            return
        self._solver.add_clause(literals, protected=protected)

    @property
    def statistics(self) -> Dict[str, int]:
        if self._solver is None:
            return {}
        return self._solver.counters()


class PreprocessingCDCLAdapter(BooleanSolverInterface):
    """CDCL behind a SatELite-style preprocessor (``cdcl-pre``).

    The first solve runs unit propagation / pure literals / subsumption /
    bounded variable elimination over the input CNF (frozen variables — the
    arithmetic definitions — are preserved), searches the simplified
    formula, and reconstructs a full model.  Blocking clauses added later
    go to the live solver; they only mention frozen variables, so
    reconstruction stays valid.
    """

    name = "cdcl-pre"

    def __init__(self, **options):
        self._options = options
        self._solver: Optional[CDCLSolver] = None
        self._frozen: set = set()
        self._result = None  # PreprocessResult
        self._unsat = False
        #: Clauses received before the first solve; replayed through the
        #: preprocessing-aware :meth:`add_clause` once the solver exists.
        self._pending: List[Tuple[List[int], bool]] = []

    def set_frozen_variables(self, variables: Sequence[int]) -> None:
        self._frozen = set(variables)

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        from ..sat.preprocess import Preprocessor

        if self._unsat:
            return None
        if self._solver is None:
            # Freeze the first query's assumption variables alongside the
            # declared ones: pure-literal and BVE removal are only
            # satisfiability-preserving, so a variable that will be pinned
            # from outside must survive preprocessing untouched.
            frozen = self._frozen | {abs(literal) for literal in assumptions}
            self._result = Preprocessor(frozen=frozen).run(cnf)
            if self._result.unsat:
                self._unsat = True
                return None
            self._solver = CDCLSolver(self._result.cnf, **self._options)
            pending = self._pending
            self._pending = []
            for clause, protected in pending:
                self.add_clause(clause, protected=protected)
            if self._unsat:
                return None
        # Assumptions must be translated through the preprocessing: forced
        # (implied) variables are evaluated here; removed ones — whether by
        # elimination or a pure-literal choice — cannot be assumed, because
        # the original formula may have models of either polarity.
        effective: List[int] = []
        eliminated = {var for var, _ in self._result.eliminated}
        for literal in assumptions:
            var = abs(literal)
            if var in self._result.forced:
                if self._result.forced[var] != (literal > 0):
                    return None  # assumption contradicts a level-0 fact
                continue
            if var in eliminated or var in self._result.chosen:
                raise RuntimeError(
                    f"assumption mentions preprocessed-away variable {var}; "
                    "declare it frozen via set_frozen_variables before solving"
                )
            effective.append(literal)
        model = self._solver.solve(effective)
        if model is None:
            return None
        return self._result.extend_model(model)

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        if self._solver is None or self._result is None:
            self._pending.append((list(literals), protected))
            return
        # Literals over variables the preprocessor fixed at level 0 must be
        # evaluated here: a clause whose surviving literals are all
        # forced-false makes the (original) formula UNSAT, and a satisfied
        # clause is dropped — the inner solver no longer tracks those vars.
        eliminated = {var for var, _ in self._result.eliminated}
        remaining: List[int] = []
        for literal in literals:
            var = abs(literal)
            if var in self._result.forced:
                if self._result.forced[var] == (literal > 0):
                    return  # clause already satisfied at level 0
                continue  # literal is false; drop it
            if var in eliminated or var in self._result.chosen:
                raise RuntimeError(
                    f"clause mentions preprocessed-away variable {var}; "
                    "declare it frozen via set_frozen_variables before solving"
                )
            remaining.append(literal)
        if not remaining:
            self._unsat = True
            return
        self._solver.add_clause(remaining, protected=protected)

    @property
    def statistics(self) -> Dict[str, int]:
        if self._solver is None:
            return {}
        return self._solver.counters()


class DPLLBooleanAdapter(BooleanSolverInterface):
    """Plain DPLL; mostly for testing and tiny problems."""

    name = "dpll"

    def __init__(self, **options):
        self._solver = DPLLSolver(**options)
        self._cnf: Optional[CNF] = None
        self._pending: List[List[int]] = []

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        if self._cnf is None:
            self._cnf = cnf.copy()
            for clause in self._pending:
                self._cnf.add_clause(clause)
            self._pending.clear()
        return self._solver.solve(self._cnf, tuple(assumptions))

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        # DPLL keeps no learned-clause database; ``protected`` is moot.
        if self._cnf is None:
            self._pending.append(list(literals))
            return
        self._cnf.add_clause(literals)


class LSATBooleanAdapter(BooleanSolverInterface):
    """LSAT stand-in: native all-solutions enumeration with minimization."""

    name = "lsat"

    def __init__(self, minimize: bool = True, **options):
        self._minimize = minimize
        self._options = options
        self._delegate = CDCLBooleanAdapter(**options)
        self._last_enumerator: Optional[AllSATSolver] = None

    def solve(self, cnf: CNF, assumptions: Sequence[int] = ()) -> Optional[Assignment]:
        return self._delegate.solve(cnf, assumptions)

    def add_clause(self, literals: Sequence[int], protected: bool = True) -> None:
        self._delegate.add_clause(literals, protected=protected)

    def all_models(self, cnf: CNF) -> Iterator[Assignment]:
        self._last_enumerator = AllSATSolver(cnf, minimize=self._minimize, **self._options)
        return self._last_enumerator.enumerate()

    @property
    def statistics(self) -> Dict[str, int]:
        stats = dict(self._delegate.statistics)
        if self._last_enumerator is not None:
            for key, value in self._last_enumerator.statistics.items():
                stats[key] = stats.get(key, 0) + value
        return stats


# ----------------------------------------------------------------------
# Linear adapters
# ----------------------------------------------------------------------
def _tags(rows: Iterable[LinearConstraint]) -> List[int]:
    """Boolean origin tags of ``rows`` (rows without one are skipped)."""
    return [row.tag for row in rows if isinstance(row.tag, int)]


class SimplexLinearAdapter(LinearSolverInterface):
    """COIN stand-in: exact simplex, B&B when integer variables occur,
    deletion-filter IIS refinement.

    Systems are first partitioned into connected components of shared
    variables and solved independently — exact, and it keeps the dense
    tableau small on loosely-coupled systems (each Sudoku cell's rows form
    their own component).

    ``check`` stops at the first component that is not feasible and names
    it on the result (:attr:`LPResult.component`).  ``refine`` explains the
    conflict from that result alone: its Farkas core seeds the deletion
    filter, so no component is solved twice.  An LP-feasible but
    IP-infeasible component has no such core and is blocked whole.

    Args:
        refine_minimal: compute IIS conflict cores via the deletion filter
            (the paper's refinement ablation toggles this off to get coarse
            full-assignment conflicts instead).
        max_bb_nodes: node budget of the branch-and-bound search used when
            a component has integer variables.
        use_presolve: historical flag, now a no-op shim.  Presolve runs
            once per query as a formula-level pipeline stage
            (:class:`repro.core.presolve.PresolveStage`) whose shared
            :class:`~repro.core.presolve.BoundStore` already tightened the
            bound rows this adapter receives; re-running the per-LP-call
            reduction here would only re-derive the same facts.  Accepted
            so existing configs (``--linear simplex-presolve``) keep
            working; disable the stage itself with
            ``ABSolverConfig(use_presolve=False)`` / ``--no-presolve``.
        warm_start: cache feasible points under a canonical structural key
            and answer re-checks by exact revalidation (on by default —
            stale entries are revalidated before use, so the cache is
            always sound; see :class:`~repro.linear.simplex.SimplexSolver`).
        engine: ``"exact"`` for the pure-Fraction simplex, ``"numpy"`` for
            the float64 filter with exact certification
            (:class:`~repro.linear.numpy_simplex.NumpySimplexSolver`; falls
            back to exact transparently when numpy is unavailable).
    """

    name = "simplex"

    def __init__(
        self,
        refine_minimal: bool = True,
        max_bb_nodes: int = 100_000,
        use_presolve: bool = False,
        warm_start: bool = True,
        engine: str = "exact",
    ):
        self.refine_minimal = refine_minimal
        self.use_presolve = use_presolve
        if engine == "numpy":
            from ..linear.numpy_simplex import NumpySimplexSolver

            self._simplex: SimplexSolver = NumpySimplexSolver(warm_start=warm_start)
        elif engine == "exact":
            self._simplex = SimplexSolver(warm_start=warm_start)
        else:
            raise ValueError(f"unknown simplex engine {engine!r}")
        self._branch_bound = BranchAndBoundSolver(max_nodes=max_bb_nodes, simplex=self._simplex)
        #: Simplex checks made by IIS extraction (seed check + probes).
        self.iis_probes = 0

    def work_counters(self) -> Dict[str, int]:
        """Cumulative engine counters (the pipeline syncs their deltas)."""
        simplex = self._simplex
        return {
            "warm_start_hits": simplex.warm_hits,
            "numpy_accepts": getattr(simplex, "numpy_accepts", 0),
            "numpy_fallbacks": getattr(simplex, "numpy_fallbacks", 0),
            "lp_solves": simplex.solves,
            "lp_pivots": simplex.total_pivots,
            "iis_probes": self.iis_probes,
        }

    def invalidate_caches(self) -> None:
        """Drop warm-start state (called when the asserted structure changes)."""
        self._simplex.clear_warm_cache()

    def set_warm_context(self, context: Optional[object]) -> None:
        """Scope warm-start certificates to a pipeline-chosen context.

        The pipeline passes a coarse mode token (``"presolve"`` while a
        contentful bound store is active, ``None`` otherwise) so that
        certificates derived under tightened bound rows are not even
        *candidates* for reuse against raw-bound systems and vice versa.
        Hygiene, not soundness — every cached certificate is revalidated
        exactly before reuse regardless.
        """
        self._simplex.warm_context = context

    def check(self, system: LinearSystem) -> LPResult:
        pairs = [(self._engine(component), component) for component in system.split_components()]
        # Specialist engines go first: their conflict core is free.
        pairs.sort(key=lambda pair: pair[0] in (self._simplex, self._branch_bound))
        merged_point: Dict[str, Fraction] = {}
        for engine, component in pairs:
            result = engine.check(component)
            if result.status is not LPStatus.FEASIBLE:
                result.component = component
                return result
            merged_point.update(result.point)
        return LPResult(LPStatus.FEASIBLE, merged_point)

    def _engine(self, component: LinearSystem):
        """The solver that decides ``component``."""
        if component.integer_variables():
            return self._branch_bound
        return self._simplex

    def refine(self, system: LinearSystem, failed: LPResult) -> Refinement:
        if not self.refine_minimal:
            return Refinement(_tags(system.rows), minimal=False)
        component = failed.component
        if failed.core_indices is None:
            # LP-feasible but IP-infeasible component: block its rows.
            return Refinement(_tags(component.rows), minimal=False)
        solves = self._simplex.solves
        core = extract_iis(component, self._simplex, first=failed)
        self.iis_probes += self._simplex.solves - solves
        return Refinement(_tags(core), minimal=True)


class DifferenceLinearAdapter(SimplexLinearAdapter):
    """Difference-logic specialist with simplex fallback.

    Components inside the QF_RDL fragment (``x - y REL c``) are decided by
    Bellman–Ford negative-cycle search; a detected cycle *is* an IIS, so
    conflict refinement is free: ``refine`` reads it off the failed check's
    ``core_indices`` and runs no solver.  ``check`` decides these
    components first, so any infeasible one explains the conflict.  Other
    components fall back to the exact simplex / branch-and-bound path.
    This adapter is the "reuse of expert knowledge" demonstration:
    selecting it makes the FISCHER family dramatically cheaper without
    touching the control loop.
    """

    name = "difference"

    def __init__(
        self,
        refine_minimal: bool = True,
        max_bb_nodes: int = 100_000,
        warm_start: bool = True,
    ):
        super().__init__(
            refine_minimal=refine_minimal,
            max_bb_nodes=max_bb_nodes,
            warm_start=warm_start,
        )
        from ..linear.difference import DifferenceLogicSolver, is_difference_system

        self._difference = DifferenceLogicSolver(warm_start=warm_start)
        self._is_difference_system = is_difference_system

    def work_counters(self) -> Dict[str, int]:
        counters = super().work_counters()
        counters["warm_start_hits"] += self._difference.warm_hits
        return counters

    def invalidate_caches(self) -> None:
        """Drop warm-start state in both the simplex and difference engines."""
        super().invalidate_caches()
        self._difference.clear_warm_cache()

    def set_warm_context(self, context: Optional[object]) -> None:
        super().set_warm_context(context)
        self._difference.warm_context = context

    def _engine(self, component: LinearSystem):
        if self._is_difference_system(component):
            return self._difference
        return super()._engine(component)

    def refine(self, system: LinearSystem, failed: LPResult) -> Refinement:
        if not self._is_difference_system(failed.component):
            return super().refine(system, failed)
        rows = failed.component.rows
        return Refinement(_tags(rows[i] for i in failed.core_indices), minimal=True)


class BranchBoundLinearAdapter(SimplexLinearAdapter):
    """Alias adapter that routes every component through branch-and-bound.

    Registered separately so benchmark configurations can name it
    explicitly; behaviour equals :class:`SimplexLinearAdapter` on systems
    with integer variables.
    """

    name = "branch-bound"

    def _engine(self, component: LinearSystem):
        return self._branch_bound


# ----------------------------------------------------------------------
# Nonlinear adapters
# ----------------------------------------------------------------------
class NewtonNonlinearAdapter(NonlinearSolverInterface):
    """Newton for square equality systems; first in the default solver list."""

    name = "newton"

    def __init__(self, **options):
        self._solver = NewtonSolver(**options)

    def applicable(self, constraints: Sequence[Constraint]) -> bool:
        return NewtonSolver.applicable(constraints)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        start = hints[0] if hints else None
        result = self._solver.solve(constraints, start=start)
        if result.converged:
            return NLPResult(NLPStatus.SAT, result.point, residual=result.residual)
        return NLPResult(NLPStatus.UNKNOWN, result.point, residual=result.residual)


class AugLagNonlinearAdapter(NonlinearSolverInterface):
    """IPOPT stand-in: the from-scratch augmented-Lagrangian engine."""

    name = "auglag"

    def __init__(self, **options):
        self._solver = AugmentedLagrangianSolver(**options)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        return self._solver.solve(constraints, bounds=bounds, hints=hints)


class ScipyNonlinearAdapter(NonlinearSolverInterface):
    """Optional scipy SLSQP backend (present only when scipy imports)."""

    name = "scipy-slsqp"

    def __init__(self, **options):
        from ..nonlinear.scipy_backend import ScipySLSQPSolver

        self._solver = ScipySLSQPSolver(**options)

    def solve(
        self,
        constraints: Sequence[Constraint],
        bounds: Optional[Bounds] = None,
        hints: Optional[Sequence[Mapping[str, float]]] = None,
    ) -> NLPResult:
        return self._solver.solve(constraints, bounds=bounds, hints=hints)
