"""Exact two-phase simplex — the reproduction's stand-in for COIN [5].

ABsolver routes the linear constituent of an AB-problem to an LP engine and
only needs three answers back: a feasible point, INFEASIBLE, or (when an
objective is supplied, e.g. by branch-and-bound) an optimum.  This module
implements a textbook two-phase primal simplex over exact
:class:`fractions.Fraction` arithmetic with Bland's anti-cycling rule, so the
SAT/UNSAT verdicts that ABsolver derives from it are sound — no float
tolerance games.

Strict inequalities are decided with the standard infinitesimal trick: a
fresh epsilon variable is added, every ``<`` / ``>`` row is weakened by
epsilon, and epsilon is maximized (capped at 1).  The strict system is
feasible iff the optimum is positive.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..core.expr import Relation
from .lp import LinearConstraint, LinearSystem

__all__ = ["LPStatus", "LPResult", "SimplexSolver", "check_feasibility", "optimize"]

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: Name of the synthetic epsilon variable used for strict inequalities.
EPSILON_VAR = "__eps__"


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPResult:
    """LP outcome: status, a witness point (vars -> Fraction), objective.

    On INFEASIBLE, ``core_indices`` lists indices into the rows of the
    checked system that form a certified infeasible subset: the Farkas
    support for the simplex, the negative cycle for Bellman–Ford.  ``None``
    means the system has no real-relaxation core (branch-and-bound proved
    an LP-feasible system integer-infeasible).

    ``component`` is set by the linear adapters, which split a system into
    connected components and stop at the first one that is not feasible:
    it is that component, and ``core_indices`` then index its rows.  The
    failed check's result is all that conflict refinement needs, so an
    infeasibility is never solved a second time to be explained.
    """

    def __init__(
        self,
        status: LPStatus,
        point: Optional[Dict[str, Fraction]] = None,
        objective: Optional[Fraction] = None,
        core_indices: Optional[List[int]] = None,
    ):
        self.status = status
        self.point = point or {}
        self.objective = objective
        self.core_indices = core_indices
        self.component: Optional[LinearSystem] = None

    @property
    def is_feasible(self) -> bool:
        return self.status is LPStatus.FEASIBLE

    def __repr__(self) -> str:
        return f"LPResult({self.status.value}, objective={self.objective})"


class _Tableau:
    """Dense simplex tableau over Fractions.

    Rows are equality constraints ``A x = b`` with ``b >= 0`` and an initial
    basis of slack/artificial columns; the objective row is kept separately.
    """

    def __init__(self, num_cols: int):
        self.num_cols = num_cols
        self.rows: List[List[Fraction]] = []
        self.rhs: List[Fraction] = []
        self.basis: List[int] = []

    def add_row(self, row: List[Fraction], rhs: Fraction, basic_col: int) -> None:
        assert rhs >= 0, "tableau rows require non-negative rhs"
        self.rows.append(row)
        self.rhs.append(rhs)
        self.basis.append(basic_col)

    def pivot(self, row_index: int, col: int) -> None:
        pivot_row = self.rows[row_index]
        pivot_value = pivot_row[col]
        inv = _ONE / pivot_value
        self.rows[row_index] = [value * inv for value in pivot_row]
        self.rhs[row_index] *= inv
        pivot_row = self.rows[row_index]
        for i, row in enumerate(self.rows):
            if i == row_index:
                continue
            factor = row[col]
            if factor == 0:
                continue
            self.rows[i] = [value - factor * pivot_row[j] for j, value in enumerate(row)]
            self.rhs[i] -= factor * self.rhs[row_index]
        self.basis[row_index] = col

    def solution(self) -> List[Fraction]:
        values = [_ZERO] * self.num_cols
        for row_index, col in enumerate(self.basis):
            values[col] = self.rhs[row_index]
        return values


class SimplexSolver:
    """Two-phase primal simplex for :class:`LinearSystem` feasibility/optima.

    ``max_pivots`` bounds the total pivot count (a safety net; Bland's rule
    already guarantees termination).

    ``warm_start`` enables the incremental-session warm-start hook: after a
    feasible check, the optimal point (i.e. the witness the final basis
    evaluates to) is cached under the *structural* signature of the system —
    coefficients and relations, but not the right-hand sides.  A later check
    whose rows differ only in their bounds first re-validates the cached
    point with exact arithmetic and, when it still satisfies every row,
    answers without pivoting at all (``warm_hits`` counts these).  The
    fallback is always a full solve, so verdicts are unaffected.
    """

    #: Cap on cached warm-start points (structural signatures).
    WARM_CACHE_LIMIT = 512

    def __init__(self, max_pivots: int = 200_000, warm_start: bool = False):
        self.max_pivots = max_pivots
        #: Pivots of the most recent solve (reset by every solve).
        self.pivots = 0
        #: Pivots over the solver's lifetime.
        self.total_pivots = 0
        #: ``check`` calls over the solver's lifetime, warm-cache answers
        #: and trivial systems included.
        self.solves = 0
        self.warm_start = warm_start
        self.warm_hits = 0
        #: Opaque scope token mixed into the warm-cache key; the pipeline
        #: sets it per query (e.g. ``"presolve"`` while tightened bound
        #: rows are active) so certificates derived under one bound regime
        #: are not matched against another.  Purely a hit-rate measure —
        #: cached certificates are revalidated exactly before reuse.
        self.warm_context: Optional[object] = None
        self._warm_points: Dict[object, Dict[str, Fraction]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def check(self, system: LinearSystem) -> LPResult:
        """Decide feasibility of the system (strict inequalities included).

        On infeasibility the result carries Farkas-certified ``core_indices``
        (positions in ``system.rows``) whenever the certificate is available.
        """
        self.solves += 1
        trivial = self._check_trivial_rows(system)
        if trivial is not None:
            if trivial.status is LPStatus.INFEASIBLE:
                core = [
                    index
                    for index, row in enumerate(system.rows)
                    if row.is_trivial() and not row.trivially_true()
                ][:1]
                return LPResult(LPStatus.INFEASIBLE, core_indices=core)
            return trivial
        positions = [i for i, row in enumerate(system.rows) if not row.is_trivial()]
        rows = [system.rows[i] for i in positions]
        signature: Optional[object] = None
        if self.warm_start:
            signature = (self.warm_context, self._structural_signature(rows))
            cached = self._warm_points.get(signature)
            if cached is not None and self._point_satisfies(rows, cached):
                self.warm_hits += 1
                return LPResult(LPStatus.FEASIBLE, dict(cached), _ZERO)
        has_strict = any(row.relation in (Relation.LT, Relation.GT) for row in rows)
        if not has_strict:
            result = self._solve(rows, objective=None, maximize=False)
        else:
            # Maximize epsilon; strictly feasible iff optimum > 0 (handled
            # inside _solve via epsilon_mode).
            result = self._solve(
                rows,
                objective={EPSILON_VAR: _ONE},
                maximize=True,
                epsilon_mode=True,
            )
        if result.status is LPStatus.INFEASIBLE and result.core_indices is not None:
            result.core_indices = sorted(positions[i] for i in result.core_indices)
        if result.status is LPStatus.FEASIBLE:
            result.point.pop(EPSILON_VAR, None)
            if signature is not None:
                if len(self._warm_points) >= self.WARM_CACHE_LIMIT:
                    self._warm_points.clear()
                self._warm_points[signature] = dict(result.point)
        return result

    def clear_warm_cache(self) -> None:
        """Drop every cached warm-start point (session ``pop`` hook)."""
        self._warm_points.clear()

    @staticmethod
    def _structural_signature(rows: Sequence[LinearConstraint]) -> object:
        """Canonical hashable key over normalized rows, ignoring bounds.

        Each row is normalized by the magnitude of its leading coefficient
        (smallest variable name), so rows equal up to positive scaling —
        ``2x - 2y <= 5`` and ``x - y <= 7`` — share a key.  Right-hand
        sides are deliberately excluded: a later check whose rows differ
        only in their bounds re-validates the cached point exactly before
        answering, so signature collisions cost a failed validation, never
        a wrong verdict.
        """
        canonical = set()
        for row in rows:
            items = sorted(row.coeffs.items())
            if items:
                scale = abs(items[0][1])
                if scale not in (0, 1):
                    items = [(var, coeff / scale) for var, coeff in items]
            canonical.add((tuple(items), row.relation))
        return frozenset(canonical)

    @staticmethod
    def _point_satisfies(
        rows: Sequence[LinearConstraint], point: Mapping[str, Fraction]
    ) -> bool:
        """Exact (Fraction) feasibility of a candidate point, strict rows included."""
        for row in rows:
            lhs = sum(
                (coeff * point.get(var, _ZERO) for var, coeff in row.coeffs.items()),
                _ZERO,
            )
            if row.relation is Relation.LE:
                ok = lhs <= row.bound
            elif row.relation is Relation.GE:
                ok = lhs >= row.bound
            elif row.relation is Relation.EQ:
                ok = lhs == row.bound
            elif row.relation is Relation.LT:
                ok = lhs < row.bound
            elif row.relation is Relation.GT:
                ok = lhs > row.bound
            else:  # pragma: no cover - Relation is a closed enum
                raise ValueError(f"unknown relation {row.relation}")
            if not ok:
                return False
        return True

    def optimize(
        self,
        system: LinearSystem,
        objective: Mapping[str, Fraction],
        maximize: bool = False,
    ) -> LPResult:
        """Optimize a linear objective over the system.

        Strict rows are weakened to weak ones for optimization purposes (the
        optimum over the closure bounds the strict optimum); branch-and-bound
        only ever calls this on weak systems.
        """
        trivial = self._check_trivial_rows(system)
        if trivial is not None:
            return trivial
        rows = [row for row in system.rows if not row.is_trivial()]
        return self._solve(rows, objective=dict(objective), maximize=maximize)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _check_trivial_rows(self, system: LinearSystem) -> Optional[LPResult]:
        for row in system.rows:
            if row.is_trivial() and not row.trivially_true():
                return LPResult(LPStatus.INFEASIBLE)
        if all(row.is_trivial() for row in system.rows):
            return LPResult(LPStatus.FEASIBLE, {}, _ZERO)
        return None

    def _normalized_le_form(
        self, rows: Sequence[LinearConstraint], epsilon_mode: bool
    ) -> Tuple[
        List[str],
        Dict[str, int],
        Dict[str, int],
        List[Tuple[Dict[int, Fraction], Fraction]],
        List[Optional[int]],
    ]:
        """Normalize ``rows`` to ``A x <= b`` over split non-negative columns.

        Returns ``(variables, col_of_pos, col_of_neg, normalized, source_of)``
        where each free variable ``v`` owns two columns (``v+``, ``v-``), the
        epsilon variable (strict-inequality mode) owns one, ``normalized`` is
        a list of ``(sparse column -> coefficient, bound)`` pairs and
        ``source_of[i]`` is the index of the originating input row (``None``
        for the synthetic epsilon cap).  Shared by the exact tableau build
        and the float64 path of
        :class:`repro.linear.numpy_simplex.NumpySimplexSolver`.
        """
        variables = sorted({v for row in rows for v in row.coeffs})
        if epsilon_mode:
            variables.append(EPSILON_VAR)

        # Column layout: for each free variable v two columns (v+, v-);
        # epsilon gets a single non-negative column; then slacks/artificials.
        col_of_pos: Dict[str, int] = {}
        col_of_neg: Dict[str, int] = {}
        next_col = 0
        for var in variables:
            col_of_pos[var] = next_col
            next_col += 1
            if var != EPSILON_VAR:
                col_of_neg[var] = next_col
                next_col += 1

        # Normalize all rows to <= form over the split columns; remember the
        # originating row of each normalized row for Farkas cores.
        normalized: List[Tuple[Dict[int, Fraction], Fraction]] = []
        source_of: List[Optional[int]] = []

        def add_le(
            coeffs: Mapping[str, Fraction],
            bound: Fraction,
            eps_coeff: Fraction,
            source: Optional[int],
        ) -> None:
            cols: Dict[int, Fraction] = {}
            for var, coeff in coeffs.items():
                cols[col_of_pos[var]] = cols.get(col_of_pos[var], _ZERO) + coeff
                cols[col_of_neg[var]] = cols.get(col_of_neg[var], _ZERO) - coeff
            if eps_coeff != 0:
                eps_col = col_of_pos[EPSILON_VAR]
                cols[eps_col] = cols.get(eps_col, _ZERO) + eps_coeff
            normalized.append(({c: v for c, v in cols.items() if v != 0}, bound))
            source_of.append(source)

        for index, row in enumerate(rows):
            if row.relation is Relation.LE:
                add_le(row.coeffs, row.bound, _ZERO, index)
            elif row.relation is Relation.GE:
                add_le({v: -c for v, c in row.coeffs.items()}, -row.bound, _ZERO, index)
            elif row.relation is Relation.EQ:
                add_le(row.coeffs, row.bound, _ZERO, index)
                add_le({v: -c for v, c in row.coeffs.items()}, -row.bound, _ZERO, index)
            elif row.relation is Relation.LT:
                # Without epsilon_mode, strict rows are weakened to <=.
                add_le(row.coeffs, row.bound, _ONE if epsilon_mode else _ZERO, index)
            elif row.relation is Relation.GT:
                add_le(
                    {v: -c for v, c in row.coeffs.items()},
                    -row.bound,
                    _ONE if epsilon_mode else _ZERO,
                    index,
                )
            else:  # pragma: no cover - Relation is a closed enum
                raise ValueError(f"unknown relation {row.relation}")
        if epsilon_mode:
            # 0 <= eps <= 1 (upper bound keeps the LP bounded).
            add_le({}, _ONE, _ONE, None)
        return variables, col_of_pos, col_of_neg, normalized, source_of

    def _solve(
        self,
        rows: Sequence[LinearConstraint],
        objective: Optional[Dict[str, Fraction]],
        maximize: bool,
        epsilon_mode: bool = False,
    ) -> LPResult:
        self.pivots = 0
        variables, col_of_pos, col_of_neg, normalized, source_of = (
            self._normalized_le_form(rows, epsilon_mode)
        )
        num_structural = len(col_of_pos) + len(col_of_neg)
        num_rows = len(normalized)
        slack_base = num_structural
        artificial_base = slack_base + num_rows
        num_artificials = sum(1 for _, bound in normalized if bound < 0)
        total_cols = artificial_base + num_artificials

        tableau = _Tableau(total_cols)
        artificial_cols: List[int] = []
        art_index = 0
        for i, (cols, bound) in enumerate(normalized):
            row_vec = [_ZERO] * total_cols
            slack_col = slack_base + i
            if bound >= 0:
                for col, coeff in cols.items():
                    row_vec[col] = coeff
                row_vec[slack_col] = _ONE
                tableau.add_row(row_vec, bound, slack_col)
            else:
                # Multiply by -1: -a x - s = -b, add artificial.
                for col, coeff in cols.items():
                    row_vec[col] = -coeff
                row_vec[slack_col] = -_ONE
                art_col = artificial_base + art_index
                art_index += 1
                row_vec[art_col] = _ONE
                artificial_cols.append(art_col)
                tableau.add_row(row_vec, -bound, art_col)

        def farkas_core(z: List[Fraction]) -> List[int]:
            """Rows with a nonzero dual in the certificate: y_i = ∓z[slack_i]."""
            core: set = set()
            for i in range(num_rows):
                if z[slack_base + i] != 0 and source_of[i] is not None:
                    core.add(source_of[i])
            return sorted(core)

        # ---- Phase 1: minimize the sum of artificials -------------------
        if artificial_cols:
            cost = [_ZERO] * total_cols
            for col in artificial_cols:
                cost[col] = _ONE
            value, z = self._run_phase(tableau, cost, minimize=True, banned=set())
            if value > 0:
                return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
            self._drive_out_artificials(tableau, set(artificial_cols))

        banned = set(artificial_cols)

        # ---- Phase 2 -----------------------------------------------------
        if objective is None:
            point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
            return LPResult(LPStatus.FEASIBLE, point, _ZERO)

        cost = [_ZERO] * total_cols
        for var, coeff in objective.items():
            if var in col_of_pos:
                cost[col_of_pos[var]] += coeff
            if var in col_of_neg:
                cost[col_of_neg[var]] -= coeff
        try:
            value, z = self._run_phase(tableau, cost, minimize=not maximize, banned=banned)
        except _Unbounded:
            return LPResult(LPStatus.UNBOUNDED)
        if epsilon_mode and value <= 0:
            # Max epsilon is non-positive: strictly infeasible; the phase-2
            # duals certify which strict/weak rows conflict.
            return LPResult(LPStatus.INFEASIBLE, core_indices=farkas_core(z))
        point = self._extract_point(tableau, variables, col_of_pos, col_of_neg)
        return LPResult(LPStatus.FEASIBLE, point, value)

    # ------------------------------------------------------------------
    def _run_phase(
        self,
        tableau: _Tableau,
        cost: List[Fraction],
        minimize: bool,
        banned: Set[int],
    ) -> Tuple[Fraction, List[Fraction]]:
        """Run simplex on the given objective.

        Returns ``(objective value, reduced-cost row)``; the reduced costs on
        slack columns encode the dual solution used for Farkas cores.
        ``banned`` columns (phase-1 artificials during phase 2) never enter
        the basis.  Raises :class:`_Unbounded` on an unbounded objective.
        """
        sign = _ONE if minimize else -_ONE
        # Reduced-cost row: start from cost, eliminate basic columns.
        z = [sign * c for c in cost]
        z_value = _ZERO
        for row_index, col in enumerate(tableau.basis):
            factor = z[col]
            if factor == 0:
                continue
            row = tableau.rows[row_index]
            z = [zj - factor * row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[row_index]

        while True:
            entering = -1
            for col in range(tableau.num_cols):
                if col in banned:
                    continue
                if z[col] < 0:
                    entering = col  # Bland: smallest index with negative cost
                    break
            if entering < 0:
                break
            # Ratio test (Bland tie-break on basis variable index).
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for row_index, row in enumerate(tableau.rows):
                coeff = row[entering]
                if coeff <= 0:
                    continue
                ratio = tableau.rhs[row_index] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and tableau.basis[row_index] < tableau.basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = row_index
            if leaving < 0:
                raise _Unbounded()
            self.pivots += 1
            self.total_pivots += 1
            if self.pivots > self.max_pivots:
                raise RuntimeError("simplex pivot budget exhausted")
            factor = z[entering]
            tableau.pivot(leaving, entering)
            pivot_row = tableau.rows[leaving]
            z = [zj - factor * pivot_row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[leaving]
        # z_value now holds -(objective) in the "sign" orientation.
        objective_value = -z_value
        return (objective_value if minimize else -objective_value), z

    def _drive_out_artificials(self, tableau: _Tableau, artificial_cols: Set[int]) -> None:
        """Pivot basic artificials (at value 0) out of the basis if possible."""
        for row_index, col in enumerate(tableau.basis):
            if col not in artificial_cols:
                continue
            row = tableau.rows[row_index]
            replacement = -1
            for j in range(tableau.num_cols):
                if j in artificial_cols:
                    continue
                if row[j] != 0:
                    replacement = j
                    break
            if replacement >= 0:
                tableau.pivot(row_index, replacement)
            # If no replacement exists the row is all-zero (redundant) and the
            # artificial stays basic at value 0, which is harmless.

    def _extract_point(
        self,
        tableau: _Tableau,
        variables: Sequence[str],
        col_of_pos: Mapping[str, int],
        col_of_neg: Mapping[str, int],
    ) -> Dict[str, Fraction]:
        values = tableau.solution()
        point: Dict[str, Fraction] = {}
        for var in variables:
            positive = values[col_of_pos[var]]
            negative = values[col_of_neg[var]] if var in col_of_neg else _ZERO
            point[var] = positive - negative
        return point


class _Unbounded(Exception):
    """Internal: the phase-2 objective is unbounded."""


def check_feasibility(system: LinearSystem) -> LPResult:
    """Module-level convenience wrapper around :meth:`SimplexSolver.check`."""
    return SimplexSolver().check(system)


def optimize(
    system: LinearSystem, objective: Mapping[str, Fraction], maximize: bool = False
) -> LPResult:
    """Module-level convenience wrapper around :meth:`SimplexSolver.optimize`."""
    return SimplexSolver().optimize(system, objective, maximize=maximize)
