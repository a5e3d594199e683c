"""Irreducible infeasible subset (IIS) extraction.

When the linear solver reports infeasibility, ABsolver computes "the smallest
conflicting subset ... and [returns it] as a hint for further queries to the
SAT-solver" (paper, Sec. 4).  We implement the classical *deletion filter*:
starting from the full infeasible row set, drop each row in turn and keep the
drop whenever the remainder is still infeasible.  The result is irreducible —
removing any single remaining row restores feasibility — which yields the
shortest possible blocking clause for this conflict.

The ablation benchmark ``bench_ablation_refinement`` measures what this buys
over blocking the full assignment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence

from ..core.expr import Relation
from .lp import LinearConstraint, LinearSystem
from .simplex import LPResult, LPStatus, SimplexSolver

__all__ = ["extract_iis", "farkas_certifies", "is_infeasible_subset"]

_ZERO = Fraction(0)
_STRICT = (Relation.LT, Relation.GT)
_NEGATED = (Relation.GE, Relation.GT)


def farkas_certifies(
    rows: Sequence[LinearConstraint], multipliers: Mapping[int, Fraction]
) -> bool:
    """True when ``multipliers`` prove the rows they name infeasible.

    ``multipliers`` maps a row index to its multiplier ``y`` on the row read
    as ``a x <= b`` (``>=``/``>`` rows negated), as on
    :attr:`LPResult.multipliers`.  The check is exact: ``y >= 0`` on every
    inequality, ``sum(y * a) = 0``, and ``sum(y * b) < 0`` (Farkas) or
    ``sum(y * b) = 0`` with ``y > 0`` on some strict row (Motzkin).
    """
    combined: Dict[str, Fraction] = {}
    bound = _ZERO
    strict = False
    for index, y in multipliers.items():
        row = rows[index]
        if row.relation is not Relation.EQ:
            if y < 0:
                return False
            strict = strict or (y > 0 and row.relation in _STRICT)
        if row.relation in _NEGATED:
            y = -y
        for var, coeff in row.coeffs.items():
            combined[var] = combined.get(var, _ZERO) + y * coeff
        bound += y * row.bound
    if any(combined.values()):
        return False
    return bound < 0 or (bound == 0 and strict)


def is_infeasible_subset(
    rows: Sequence[LinearConstraint],
    domains: Optional[dict] = None,
    solver: Optional[SimplexSolver] = None,
) -> bool:
    """True when the conjunction of ``rows`` (over reals) is infeasible.

    Integrality is deliberately ignored here: an LP-infeasible subset is also
    IP-infeasible, so real-relaxation IISes remain sound hints for the SAT
    solver even on integer problems.
    """
    solver = solver or SimplexSolver()
    system = LinearSystem(rows, domains)
    return solver.check(system).status is LPStatus.INFEASIBLE


def extract_iis(
    system: LinearSystem,
    solver: Optional[SimplexSolver] = None,
    first: Optional[LPResult] = None,
) -> List[LinearConstraint]:
    """Deletion-filter IIS of an infeasible linear system.

    Precondition: the system's real relaxation is infeasible (ValueError
    otherwise).  Returns rows forming an irreducible infeasible core; the
    rows keep their ``tag`` fields so the caller can map them back to Boolean
    literals.

    ``first`` is the simplex's failed check of ``system`` when the caller
    already holds it (the deciding check of the control loop): its Farkas
    core seeds the filter and the system is not solved again.  Without it
    the system is checked once here.
    """
    solver = solver or SimplexSolver()
    rows = [row for row in system.rows]
    if first is None:
        first = solver.check(LinearSystem(rows, system.domains))
    if first.status is not LPStatus.INFEASIBLE:
        raise ValueError("extract_iis called on a feasible system")

    # Seed the deletion filter with the simplex's Farkas certificate — a
    # (usually small) infeasible subset available for free from the failed
    # check.  The seed is used only once proven infeasible, by its exact
    # multipliers or else by a fresh LP, so a wrong certificate never
    # produces an unsound core; the filter then only has to establish
    # irreducibility.
    if first.core_indices:
        core = [rows[i] for i in first.core_indices]
        if not _seed_certified(rows, first) and not is_infeasible_subset(
            core, system.domains, solver
        ):
            core = list(rows)  # certificate unusable; fall back to all rows
    else:
        core = list(rows)
    index = 0
    while index < len(core):
        candidate = core[:index] + core[index + 1 :]
        if candidate and is_infeasible_subset(candidate, system.domains, solver):
            core = candidate
            # Do not advance: the row now at `index` is a new candidate.
        elif not candidate:
            # A single row can be infeasible on its own (e.g. 0 < -1 rows
            # never reach here since they are trivial, but x < x style rows
            # normalize to 0 < 0).  Keep it; nothing left to delete.
            break
        else:
            index += 1
    return core


def _seed_certified(rows: Sequence[LinearConstraint], first: LPResult) -> bool:
    """Whether ``first``'s multipliers prove its core infeasible, no LP run."""
    multipliers = first.multipliers
    return (
        bool(multipliers)
        and set(multipliers) <= set(first.core_indices)
        and farkas_certifies(rows, multipliers)
    )
