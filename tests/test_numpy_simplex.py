"""Float64-filtered simplex vs the exact engine: verdicts must not differ.

The float path only ever *proposes* a basis (feasible) or a Farkas
support (infeasible); exact ``Fraction`` arithmetic certifies every
verdict before it leaves :class:`NumpySimplexSolver`, and anything the
certificate step cannot confirm falls back to the full exact solve.
These tests drive the filter through seeded random systems, degenerate
and near-singular tableaus, and the numpy-less degradation path, always
comparing against :class:`SimplexSolver` as the oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.expr import Relation
from repro.linear import LinearConstraint, LinearSystem, LPStatus, SimplexSolver
from repro.linear import numpy_simplex
from repro.linear.iis import farkas_certifies
from repro.linear.numpy_simplex import NumpySimplexSolver, numpy_available


def _row(coeffs, relation, bound):
    return LinearConstraint(
        {name: Fraction(value) for name, value in coeffs.items()},
        relation,
        Fraction(bound),
    )


def _assert_agreement(system):
    """Both engines decide ``system`` identically, with valid witnesses."""
    exact = SimplexSolver().check(system)
    filtered = NumpySimplexSolver(min_rows=0).check(system)
    assert filtered.status == exact.status
    if filtered.status is LPStatus.FEASIBLE:
        assert system.check_point(filtered.point)
    elif filtered.core_indices is not None:
        core = LinearSystem([system.rows[i] for i in filtered.core_indices])
        assert SimplexSolver().check(core).status is LPStatus.INFEASIBLE


@st.composite
def random_system(draw):
    """Seeded dense-ish systems mixing relations, ~half infeasible."""
    num_vars = draw(st.integers(2, 6))
    names = [f"x{i}" for i in range(num_vars)]
    point = {name: Fraction(draw(st.integers(-4, 4))) for name in names}
    feasible = draw(st.booleans())
    rows = []
    for index in range(draw(st.integers(2, 12))):
        support = draw(
            st.lists(st.sampled_from(names), min_size=1, max_size=num_vars, unique=True)
        )
        coeffs = {name: Fraction(draw(st.integers(-7, 7))) for name in support}
        if all(value == 0 for value in coeffs.values()):
            coeffs[support[0]] = Fraction(1)
        lhs = sum(coeffs[name] * point[name] for name in support)
        if feasible:
            # every bound holds at `point`, so the system is satisfiable
            rows.append(_row(coeffs, Relation.LE, lhs + draw(st.integers(0, 5))))
        else:
            relation = draw(st.sampled_from([Relation.LE, Relation.GE, Relation.EQ]))
            rows.append(_row(coeffs, relation, lhs + draw(st.integers(-5, 5))))
    return LinearSystem(rows)


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestPropertyAgreement:
    @settings(max_examples=80, deadline=None)
    @given(random_system())
    def test_verdicts_match_exact_engine(self, system):
        _assert_agreement(system)

    @settings(max_examples=30, deadline=None)
    @given(random_system(), random_system())
    def test_one_solver_instance_across_systems(self, first, second):
        solver = NumpySimplexSolver(min_rows=0)
        for system in (first, second):
            exact = SimplexSolver().check(system)
            assert solver.check(system).status == exact.status


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestDegenerateTableaus:
    def test_duplicate_and_redundant_rows(self):
        # Linearly dependent rows make the float basis singular-prone.
        rows = [
            _row({"x": 1, "y": 1}, Relation.LE, 4),
            _row({"x": 1, "y": 1}, Relation.LE, 4),
            _row({"x": 2, "y": 2}, Relation.LE, 8),
            _row({"x": 1}, Relation.GE, 1),
        ]
        _assert_agreement(LinearSystem(rows))

    def test_degenerate_equalities(self):
        # A vertex where more constraints are tight than dimensions.
        rows = [
            _row({"x": 1, "y": 1}, Relation.EQ, 2),
            _row({"x": 1, "y": -1}, Relation.EQ, 0),
            _row({"x": 1}, Relation.LE, 1),
            _row({"y": 1}, Relation.LE, 1),
        ]
        _assert_agreement(LinearSystem(rows))

    def test_near_singular_scaling(self):
        # Coefficient magnitudes spanning ~12 orders of magnitude push
        # float pivots toward the PIVOT_TOLERANCE cutoff; the fallback
        # (or a certified accept) must still match the exact engine.
        big, small = Fraction(10**8), Fraction(1, 10**4)
        rows = [
            _row({"x": big, "y": 1}, Relation.LE, big),
            _row({"x": small, "y": -1}, Relation.LE, small),
            _row({"x": 1}, Relation.GE, 0),
            _row({"y": 1}, Relation.GE, 0),
        ]
        _assert_agreement(LinearSystem(rows))

    def test_strict_inequalities_stay_exact(self):
        # Feasible only with real slack: x < 1, x > 1 - epsilon region.
        rows = [
            _row({"x": 1}, Relation.LT, 1),
            _row({"x": 1}, Relation.GT, 0),
            _row({"x": 2}, Relation.LT, 2),
        ]
        _assert_agreement(LinearSystem(rows))
        infeasible = LinearSystem(
            [_row({"x": 1}, Relation.LT, 1), _row({"x": 1}, Relation.GE, 1)]
        )
        _assert_agreement(infeasible)

    def test_infeasible_farkas_support_is_certified(self):
        rows = [
            _row({"x": 1, "y": 1}, Relation.GE, 10),
            _row({"x": 1}, Relation.LE, 3),
            _row({"y": 1}, Relation.LE, 3),
            _row({"x": 1, "y": -1}, Relation.LE, 50),  # irrelevant padding
        ]
        solver = NumpySimplexSolver(min_rows=0)
        result = solver.check(LinearSystem(rows))
        assert result.status is LPStatus.INFEASIBLE
        core = LinearSystem([rows[i] for i in result.core_indices])
        assert SimplexSolver().check(core).status is LPStatus.INFEASIBLE
        # The exact re-check's multipliers are mapped back to these rows.
        assert farkas_certifies(rows, result.multipliers)


class TestExactGaussianSolve:
    """The exact basis solve behind a float-feasible answer."""

    def test_random_square_systems(self):
        rng = random.Random(7)
        solved = 0
        for _ in range(200):
            n = rng.randint(1, 6)
            # Sparse integer matrices, so pivots skip most columns.
            matrix = [
                [Fraction(rng.choice((0, 0, 0, 1, -1, 2, 3))) for _ in range(n)]
                for _ in range(n)
            ]
            rhs = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            before = [row[:] for row in matrix]
            solution = numpy_simplex._exact_gaussian_solve(matrix, rhs)
            assert matrix == before  # the caller's matrix is not touched
            if solution is None:
                continue
            solved += 1
            for row, value in zip(matrix, rhs):
                assert sum(a * x for a, x in zip(row, solution)) == value
        assert solved > 50

    def test_zero_leading_entry_swaps_rows(self):
        matrix = [[Fraction(0), Fraction(2)], [Fraction(3), Fraction(1)]]
        rhs = [Fraction(4), Fraction(5)]
        assert numpy_simplex._exact_gaussian_solve(matrix, rhs) == [1, 2]

    def test_singular_matrix_is_none(self):
        matrix = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert numpy_simplex._exact_gaussian_solve(matrix, [Fraction(1)] * 2) is None


@pytest.mark.skipif(not numpy_available(), reason="numpy not importable")
class TestPathAccounting:
    def test_small_systems_skip_the_float_path(self):
        solver = NumpySimplexSolver(min_rows=8)
        system = LinearSystem([_row({"x": 1}, Relation.LE, 1)])
        assert solver.check(system).status is LPStatus.FEASIBLE
        assert solver.numpy_accepts == 0 and solver.numpy_fallbacks == 0

    def test_large_feasible_system_is_float_accepted(self):
        names = [f"x{i}" for i in range(10)]
        rows = [
            _row({name: 1 for name in names[i : i + 3]}, Relation.LE, 5 + i)
            for i in range(8)
        ] + [_row({name: 1}, Relation.GE, 0) for name in names]
        solver = NumpySimplexSolver(min_rows=0)
        assert solver.check(LinearSystem(rows)).status is LPStatus.FEASIBLE
        assert solver.numpy_accepts == 1


class TestNumpylessDegradation:
    def test_degrades_to_exact_engine(self, monkeypatch):
        monkeypatch.setattr(numpy_simplex, "_np", None)
        solver = NumpySimplexSolver(min_rows=0)
        system = LinearSystem(
            [
                _row({"x": 1, "y": 1}, Relation.LE, 4),
                _row({"x": 1}, Relation.GE, 1),
                _row({"y": 1}, Relation.GE, 1),
            ]
        )
        result = solver.check(system)
        assert result.status is LPStatus.FEASIBLE
        assert system.check_point(result.point)
        assert solver.numpy_accepts == 0 and solver.numpy_fallbacks == 0
