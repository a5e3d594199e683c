"""The sparse exact simplex kernel against a frozen copy of the dense one.

A tableau pivot only changes the columns where the pivot row is nonzero,
so the kernel updates those alone.  Every entry it does update goes through
the same ``Fraction`` operation as in a dense update, so the Bland pivot
sequence, and with it every answer, must be the dense kernel's bit for bit.
The dense pivot and phase loop are frozen below as an oracle only; a
seeded sweep over real, strict, equality, unbounded and integer systems
compares status, point, objective, Farkas core and pivot count.

The Farkas multipliers carried on an infeasible result are checked here
too: they must prove their core infeasible exactly, and ``extract_iis``
must accept a verified seed without an LP and fall back to one otherwise.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional, Set, Tuple

import pytest

from repro.core.expr import Relation
from repro.linear.branch_bound import BranchAndBoundSolver
from repro.linear.iis import extract_iis, farkas_certifies
from repro.linear.lp import LinearConstraint, LinearSystem
from repro.linear.simplex import LPStatus, SimplexSolver, _Unbounded

LE, GE, LT, GT, EQ = Relation.LE, Relation.GE, Relation.LT, Relation.GT, Relation.EQ

_ZERO = Fraction(0)
_ONE = Fraction(1)


def row(coeffs, relation, bound, tag=None):
    return LinearConstraint(
        {var: Fraction(c) for var, c in coeffs.items()}, relation, Fraction(bound), tag
    )


# ----------------------------------------------------------------------
# Frozen dense kernel (oracle only)
# ----------------------------------------------------------------------
def _dense_pivot(tableau, row_index: int, col: int) -> None:
    pivot_row = tableau.rows[row_index]
    pivot_value = pivot_row[col]
    inv = _ONE / pivot_value
    tableau.rows[row_index] = [value * inv for value in pivot_row]
    tableau.rhs[row_index] *= inv
    pivot_row = tableau.rows[row_index]
    for i, other in enumerate(tableau.rows):
        if i == row_index:
            continue
        factor = other[col]
        if factor == 0:
            continue
        tableau.rows[i] = [value - factor * pivot_row[j] for j, value in enumerate(other)]
        tableau.rhs[i] -= factor * tableau.rhs[row_index]
    tableau.basis[row_index] = col


class DenseSimplexSolver(SimplexSolver):
    """The simplex with the dense pivot and phase loop it had before the
    sparse kernel.  Drive-out pivots were not counted then; they are
    counted apart in ``drive_out_pivots`` so counts can be compared."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.drive_out_pivots = 0

    def _run_phase(
        self, tableau, cost: List[Fraction], minimize: bool, banned: Set[int]
    ) -> Tuple[Fraction, List[Fraction]]:
        sign = _ONE if minimize else -_ONE
        z = [sign * c for c in cost]
        z_value = _ZERO
        for row_index, col in enumerate(tableau.basis):
            factor = z[col]
            if factor == 0:
                continue
            tableau_row = tableau.rows[row_index]
            z = [zj - factor * tableau_row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[row_index]
        while True:
            entering = -1
            for col in range(tableau.num_cols):
                if col in banned:
                    continue
                if z[col] < 0:
                    entering = col
                    break
            if entering < 0:
                break
            leaving = -1
            best_ratio: Optional[Fraction] = None
            for row_index, tableau_row in enumerate(tableau.rows):
                coeff = tableau_row[entering]
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
            _dense_pivot(tableau, leaving, entering)
            pivot_row = tableau.rows[leaving]
            z = [zj - factor * pivot_row[j] for j, zj in enumerate(z)]
            z_value -= factor * tableau.rhs[leaving]
        objective_value = -z_value
        return (objective_value if minimize else -objective_value), z

    def _drive_out_artificials(self, tableau, artificial_cols: Set[int]) -> None:
        for row_index, col in enumerate(tableau.basis):
            if col not in artificial_cols:
                continue
            tableau_row = tableau.rows[row_index]
            replacement = -1
            for j in range(tableau.num_cols):
                if j in artificial_cols:
                    continue
                if tableau_row[j] != 0:
                    replacement = j
                    break
            if replacement >= 0:
                self.drive_out_pivots += 1
                _dense_pivot(tableau, row_index, replacement)


# ----------------------------------------------------------------------
# Seeded systems
# ----------------------------------------------------------------------
_RELATIONS = (LE, GE, EQ, LT, GT)


def _random_system(rng: random.Random, integer: bool = False) -> LinearSystem:
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    anchor = {name: rng.randint(-4, 4) for name in names}
    rows = []
    for _ in range(rng.randint(1, 8)):
        width = rng.randint(1, len(names))
        coeffs = {v: rng.choice((-3, -2, -1, 1, 1, 2, 3)) for v in rng.sample(names, width)}
        relation = rng.choice(_RELATIONS)
        # Bounds near the anchor's value: about half the systems are
        # feasible, and negative bounds bring in phase-1 artificials.
        value = sum(c * anchor[v] for v, c in coeffs.items())
        rows.append(row(coeffs, relation, value + rng.randint(-3, 3)))
    if not integer:
        return LinearSystem(rows)
    # A box keeps branch-and-bound finite on IP-infeasible systems.
    for name in names:
        rows.append(row({name: 1}, GE, -6))
        rows.append(row({name: 1}, LE, 6))
    return LinearSystem(rows, {name: "int" for name in names})


def _random_objective(rng: random.Random, system: LinearSystem):
    names = sorted(system.variables())
    return {v: Fraction(rng.randint(-2, 2)) for v in rng.sample(names, rng.randint(1, len(names)))}


def _same(sparse, dense) -> None:
    assert sparse.status is dense.status
    assert sparse.point == dense.point
    assert sparse.objective == dense.objective
    assert sparse.core_indices == dense.core_indices
    assert sparse.multipliers == dense.multipliers


class TestSparseKernelMatchesDense:
    def test_check_and_optimize_sweep(self):
        seen = {"drive_out": 0, "infeasible": 0, "unbounded": 0, "strict": 0}
        for seed in range(320):
            rng = random.Random(seed)
            system = _random_system(rng)
            sparse, dense = SimplexSolver(), DenseSimplexSolver()

            result = sparse.check(system)
            expected = dense.check(system)
            _same(result, expected)
            assert sparse.pivots == dense.pivots + dense.drive_out_pivots, seed
            seen["drive_out"] += dense.drive_out_pivots
            seen["strict"] += any(r.relation in (LT, GT) for r in system.rows)
            if result.status is LPStatus.INFEASIBLE:
                seen["infeasible"] += 1
                assert farkas_certifies(system.rows, result.multipliers), seed
                assert set(result.multipliers) <= set(result.core_indices), seed

            objective = _random_objective(rng, system)
            maximize = rng.random() < 0.5
            dense.drive_out_pivots = 0
            result = sparse.optimize(system, objective, maximize=maximize)
            expected = dense.optimize(system, objective, maximize=maximize)
            _same(result, expected)
            assert sparse.pivots == dense.pivots + dense.drive_out_pivots, seed
            seen["unbounded"] += result.status is LPStatus.UNBOUNDED
        # The sweep covers every kind of answer and the drive-out pivots.
        assert all(seen.values()), seen

    @pytest.mark.parametrize("seed", range(60))
    def test_branch_and_bound(self, seed):
        rng = random.Random(10_000 + seed)
        system = _random_system(rng, integer=True)
        dense_simplex = DenseSimplexSolver()
        sparse = BranchAndBoundSolver(max_nodes=2_000, simplex=SimplexSolver())
        dense = BranchAndBoundSolver(max_nodes=2_000, simplex=dense_simplex)
        _same(sparse.check(system), dense.check(system))
        assert sparse.nodes_explored == dense.nodes_explored
        assert sparse.simplex.total_pivots == (
            dense_simplex.total_pivots + dense_simplex.drive_out_pivots
        )


class TestPivotCount:
    def test_drive_out_pivots_are_counted(self):
        # x + y = 2 twice: phase 1 leaves one artificial basic at zero on a
        # redundant row, with a nonzero it can be pivoted out on.
        system = LinearSystem(
            [row({"x": 1, "y": 1}, EQ, -2), row({"x": 2, "y": 2}, EQ, -4)]
        )
        sparse, dense = SimplexSolver(), DenseSimplexSolver()
        assert sparse.check(system).status is LPStatus.FEASIBLE
        dense.check(system)
        assert dense.drive_out_pivots > 0
        assert sparse.pivots == dense.pivots + dense.drive_out_pivots
        assert sparse.total_pivots == sparse.pivots


# ----------------------------------------------------------------------
# Farkas multipliers and the IIS seed
# ----------------------------------------------------------------------
class TestFarkasCertificate:
    ROWS = [row({"x": 1, "y": 1}, GE, 10), row({"x": 1}, LE, 3), row({"y": 1}, LE, 3)]

    def test_valid_certificate(self):
        assert farkas_certifies(self.ROWS, {0: Fraction(1), 1: Fraction(1), 2: Fraction(1)})

    @pytest.mark.parametrize(
        "multipliers",
        [
            {0: Fraction(1), 1: Fraction(1)},  # x + y does not cancel
            {0: Fraction(-1), 1: Fraction(-1), 2: Fraction(-1)},  # wrong sign
            {0: Fraction(2), 1: Fraction(1), 2: Fraction(1)},  # does not cancel
            {},
        ],
    )
    def test_invalid_certificates(self, multipliers):
        assert not farkas_certifies(self.ROWS, multipliers)

    def test_motzkin_needs_a_strict_row(self):
        # x < 1 and x >= 1 sum to 0 < 0; with x <= 1 instead, 0 <= 0 holds.
        strict = [row({"x": 1}, LT, 1), row({"x": 1}, GE, 1)]
        weak = [row({"x": 1}, LE, 1), row({"x": 1}, GE, 1)]
        both = {0: Fraction(1), 1: Fraction(1)}
        assert farkas_certifies(strict, both)
        assert not farkas_certifies(weak, both)

    def test_equality_rows_take_either_sign(self):
        rows = [row({"x": 1}, EQ, 5), row({"x": 1}, LE, 3)]
        assert farkas_certifies(rows, {0: Fraction(-1), 1: Fraction(1)})
        assert not farkas_certifies(rows, {0: Fraction(1), 1: Fraction(1)})


class _CountingSolver(SimplexSolver):
    def __init__(self):
        super().__init__()
        self.checked: List[int] = []

    def check(self, system):
        self.checked.append(len(system.rows))
        return super().check(system)


class TestIISSeed:
    # A conflict whose Farkas core is already irreducible, plus padding.
    ROWS = [
        row({"x": 1, "y": 1}, GE, 10, tag=1),
        row({"x": 1}, LE, 3, tag=2),
        row({"y": 1}, LE, 3, tag=3),
        row({"x": 1, "y": -1}, LE, 50, tag=4),
    ]

    def _failed(self):
        system = LinearSystem(self.ROWS)
        failed = SimplexSolver().check(system)
        assert failed.core_indices == [0, 1, 2]
        return system, failed

    def test_verified_seed_runs_no_lp(self):
        system, failed = self._failed()
        solver = _CountingSolver()
        core = extract_iis(system, solver, first=failed)
        assert [r.tag for r in core] == [1, 2, 3]
        # Only the deletion filter's probes: one per seed row.
        assert solver.checked == [2, 2, 2]

    @pytest.mark.parametrize("multipliers", [None, {0: Fraction(-1)}, {3: Fraction(1)}])
    def test_unverified_seed_falls_back_to_an_lp(self, multipliers):
        system, failed = self._failed()
        failed.multipliers = multipliers
        solver = _CountingSolver()
        core = extract_iis(system, solver, first=failed)
        assert [r.tag for r in core] == [1, 2, 3]
        assert solver.checked == [3, 2, 2, 2]

    def test_wrong_core_falls_back_to_every_row(self):
        system, failed = self._failed()
        failed.core_indices = [3]
        failed.multipliers = {3: Fraction(1)}
        core = extract_iis(system, _CountingSolver(), first=failed)
        assert [r.tag for r in core] == [1, 2, 3]
