"""Direct tests for the solver-interface adapters (Fig. 4 layer)."""

from fractions import Fraction

import pytest

from repro.core.expr import parse_constraint
from repro.core.interface import (
    AugLagNonlinearAdapter,
    BranchBoundLinearAdapter,
    CDCLBooleanAdapter,
    DifferenceLinearAdapter,
    DPLLBooleanAdapter,
    LSATBooleanAdapter,
    NewtonNonlinearAdapter,
    SimplexLinearAdapter,
)
from repro.linear import LinearConstraint, LinearSystem, LPStatus
from repro.nonlinear import NLPStatus
from repro.sat import CNF


def row(text, tag=None):
    return LinearConstraint.from_constraint(parse_constraint(text), tag=tag)


class TestBooleanAdapters:
    def test_cdcl_statistics_exposed(self):
        adapter = CDCLBooleanAdapter()
        cnf = CNF(2, [[1, 2], [-1, 2]])
        assert adapter.solve(cnf) is not None
        stats = adapter.statistics
        assert "decisions" in stats and "conflicts" in stats

    def test_dpll_add_clause(self):
        adapter = DPLLBooleanAdapter()
        cnf = CNF(1, [[1]])
        assert adapter.solve(cnf) is not None
        adapter.add_clause([-1])
        assert adapter.solve(cnf) is None

    def test_dpll_add_clause_before_solve_buffered(self):
        # Clauses learned before the first solve (e.g. presolve units) are
        # buffered and take effect once the CNF arrives.
        adapter = DPLLBooleanAdapter()
        adapter.add_clause([-1])
        assert adapter.solve(CNF(1, [[1]])) is None

    def test_lsat_all_models_and_minimize_flag(self):
        cnf = CNF(2, [[1, 2]])
        full = list(LSATBooleanAdapter(minimize=False).all_models(cnf))
        assert len(full) == 3
        cubes = list(LSATBooleanAdapter(minimize=True).all_models(cnf))
        assert 1 <= len(cubes) <= 3

    def test_lsat_single_solve_delegates(self):
        adapter = LSATBooleanAdapter()
        cnf = CNF(1, [[1]])
        model = adapter.solve(cnf)
        assert model == {1: True}


class TestLinearAdapters:
    def feasible_system(self):
        return LinearSystem([row("x + y <= 4", tag=1), row("x - y >= 0", tag=2)])

    def infeasible_system(self):
        return LinearSystem(
            [row("x >= 5", tag=1), row("x <= 3", tag=2), row("z >= 0", tag=3)]
        )

    def test_simplex_adapter_check(self):
        adapter = SimplexLinearAdapter()
        assert adapter.check(self.feasible_system()).status is LPStatus.FEASIBLE
        assert adapter.check(self.infeasible_system()).status is LPStatus.INFEASIBLE

    def test_simplex_adapter_refine_is_minimal(self):
        adapter = SimplexLinearAdapter()
        system = self.infeasible_system()
        failed = adapter.check(system)
        assert failed.status is LPStatus.INFEASIBLE
        refinement = adapter.refine(system, failed)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2]
        assert sorted(refinement.blocking_clause()) == [-2, -1]

    def test_simplex_adapter_coarse_mode(self):
        adapter = SimplexLinearAdapter(refine_minimal=False)
        system = self.infeasible_system()
        refinement = adapter.refine(system, adapter.check(system))
        assert not refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2, 3]

    def test_component_merging(self):
        adapter = SimplexLinearAdapter()
        system = LinearSystem([row("x <= 1"), row("y >= 7")])
        result = adapter.check(system)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] <= 1 and result.point["y"] >= 7

    def test_branch_bound_adapter(self):
        adapter = BranchBoundLinearAdapter()
        system = LinearSystem([row("2*x >= 1"), row("2*x <= 3")], {"x": "int"})
        result = adapter.check(system)
        assert result.status is LPStatus.FEASIBLE
        assert result.point["x"] == Fraction(1)

    def test_difference_adapter_fragment_routing(self):
        adapter = DifferenceLinearAdapter()
        # inside the fragment
        dl = LinearSystem([row("x - y <= -1", tag=1), row("y - x <= -1", tag=2)])
        failed = adapter.check(dl)
        assert failed.status is LPStatus.INFEASIBLE
        refinement = adapter.refine(dl, failed)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2]
        # outside the fragment: falls back to the simplex
        general = LinearSystem([row("x + y <= 4", tag=1)])
        assert adapter.check(general).status is LPStatus.FEASIBLE

    def test_presolve_adapter_equivalence(self):
        plain = SimplexLinearAdapter()
        presolved = SimplexLinearAdapter(use_presolve=True)
        for system_factory in (self.feasible_system, self.infeasible_system):
            a = plain.check(system_factory())
            b = presolved.check(system_factory())
            assert a.status == b.status
        system = self.feasible_system()
        result = presolved.check(system)
        assert system.check_point(result.point)


class TestNonlinearAdapters:
    def test_newton_applicability_filter(self):
        adapter = NewtonNonlinearAdapter()
        square = [parse_constraint("x*x = 4")]
        assert adapter.applicable(square)
        assert not adapter.applicable([parse_constraint("x <= 1")])
        result = adapter.solve(square, hints=[{"x": 1.0}])
        assert result.status is NLPStatus.SAT

    def test_newton_nonconvergence_is_unknown(self):
        adapter = NewtonNonlinearAdapter()
        result = adapter.solve([parse_constraint("x*x = -1")], hints=[{"x": 1.0}])
        assert result.status is NLPStatus.UNKNOWN

    def test_auglag_adapter(self):
        adapter = AugLagNonlinearAdapter()
        result = adapter.solve(
            [parse_constraint("x * y >= 4"), parse_constraint("x + y <= 5")],
            bounds={"x": (0, 5), "y": (0, 5)},
        )
        assert result.status is NLPStatus.SAT
