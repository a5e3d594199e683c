"""Conflict refinement reuses the failed check's certificate.

A linear adapter's ``check`` names the first infeasible component and its
core on the result it returns; ``refine(system, failed)`` explains the
conflict from that result without solving the component again.  Two kinds
of test pin this down:

* solve counts — spies on the three engines show that refinement makes no
  full-component solve (simplex), no Bellman–Ford run (difference) and no
  branch-and-bound run (integer);
* a differential sweep — over seeded random infeasible systems, the
  refinement equals the one of the former re-solve-based path, frozen in
  this file, and every minimal core is an irreducible infeasible subset.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Tuple

import pytest

from repro.core.expr import Relation
from repro.core.interface import (
    BranchBoundLinearAdapter,
    DifferenceLinearAdapter,
    SimplexLinearAdapter,
)
from repro.linear.branch_bound import BranchAndBoundSolver
from repro.linear.difference import DifferenceLogicSolver, is_difference_system
from repro.linear.iis import is_infeasible_subset
from repro.linear.lp import LinearConstraint, LinearSystem
from repro.linear.simplex import LPStatus, SimplexSolver


def row(coeffs, relation, bound, tag=None):
    return LinearConstraint(
        {var: Fraction(c) for var, c in coeffs.items()}, relation, Fraction(bound), tag
    )


LE, GE, LT, GT, EQ = Relation.LE, Relation.GE, Relation.LT, Relation.GT, Relation.EQ


# ----------------------------------------------------------------------
# Solve counts
# ----------------------------------------------------------------------
@pytest.fixture
def spies(monkeypatch):
    """Record the systems each engine's ``check`` is handed."""
    calls: Dict[str, List[LinearSystem]] = {"simplex": [], "difference": [], "bb": []}
    for name, owner in (
        ("simplex", SimplexSolver),
        ("difference", DifferenceLogicSolver),
        ("bb", BranchAndBoundSolver),
    ):
        original = owner.check

        def spy(self, system, _original=original, _name=name):
            calls[_name].append(system)
            return _original(self, system)

        monkeypatch.setattr(owner, "check", spy)
    return calls


def _clear(calls):
    for recorded in calls.values():
        recorded.clear()


class TestRefinementSolveCount:
    def test_real_component_is_not_solved_again(self, spies):
        adapter = SimplexLinearAdapter()
        # Two components; the second is infeasible, and its x-y coupling
        # rows are not part of the conflict x >= 5, x <= 3.
        system = LinearSystem(
            [
                row({"z": 1}, GE, 0, tag=1),
                row({"x": 1}, GE, 5, tag=2),
                row({"x": 1, "y": 1}, LE, 10, tag=3),
                row({"y": 1}, GE, 0, tag=4),
                row({"x": 1}, LE, 3, tag=5),
                row({"x": 1, "y": -1}, LT, 7, tag=6),
            ]
        )
        failed = adapter.check(system)
        assert failed.status is LPStatus.INFEASIBLE
        component = failed.component
        assert {r.tag for r in component.rows} == {2, 3, 4, 5, 6}
        seed = len(failed.core_indices)
        assert seed < len(component.rows)
        _clear(spies)
        refinement = adapter.refine(system, failed)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [2, 5]
        probes = spies["simplex"]
        # The Farkas-seed re-validation plus at most one probe per seed row,
        # each over a subset of the seed: never the full component.
        assert 1 <= len(probes) <= 1 + seed
        assert all(len(probe.rows) <= seed for probe in probes)
        assert spies["bb"] == [] and spies["difference"] == []
        assert adapter.iis_probes == len(probes)

    def test_difference_cycle_needs_no_bellman_ford(self, spies):
        adapter = DifferenceLinearAdapter()
        system = LinearSystem(
            [
                row({"x": 1, "y": -1}, LE, -1, tag=1),
                row({"y": 1, "z": -1}, LE, 0, tag=2),
                row({"z": 1, "x": -1}, LT, 1, tag=3),
                row({"x": 1}, GE, -4, tag=4),
            ]
        )
        failed = adapter.check(system)
        assert failed.status is LPStatus.INFEASIBLE
        _clear(spies)
        refinement = adapter.refine(system, failed)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2, 3]
        assert spies == {"simplex": [], "difference": [], "bb": []}

    def test_integer_infeasible_component_needs_no_branch_and_bound(self, spies):
        adapter = SimplexLinearAdapter()
        # LP-feasible (x = 1/2) but no integer point: no Farkas core exists.
        system = LinearSystem(
            [row({"x": 2}, GE, 1, tag=1), row({"x": 2}, LE, 1, tag=2)], {"x": "int"}
        )
        failed = adapter.check(system)
        assert failed.status is LPStatus.INFEASIBLE
        assert failed.core_indices is None
        _clear(spies)
        refinement = adapter.refine(system, failed)
        assert not refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 2]
        assert spies == {"simplex": [], "difference": [], "bb": []}

    def test_integer_component_with_infeasible_relaxation_keeps_its_core(self, spies):
        adapter = SimplexLinearAdapter()
        system = LinearSystem(
            [
                row({"x": 1}, GE, 5, tag=1),
                row({"x": 1, "y": 1}, LE, 20, tag=2),
                row({"x": 1}, LE, 3, tag=3),
            ],
            {"x": "int", "y": "int"},
        )
        failed = adapter.check(system)
        assert failed.status is LPStatus.INFEASIBLE
        assert failed.core_indices is not None
        _clear(spies)
        refinement = adapter.refine(system, failed)
        assert refinement.minimal
        assert sorted(refinement.conflicting_tags) == [1, 3]
        assert spies["bb"] == []
        assert all(len(probe.rows) < len(system.rows) for probe in spies["simplex"])


def test_theory_work_counters_reach_the_statistics(spies):
    from repro import ABSolver
    from repro.benchgen import fischer_unroll_family

    family = fischer_unroll_family(3)
    solver = ABSolver()
    result = solver.solve(family.problem_at_depth(3), assumptions=family.check_assumptions(3))
    assert result.is_sat
    stats = solver.stats
    assert stats.conflicts_refined >= 1
    # Every simplex check is counted, the refinement's probes included.
    assert stats.lp_solves == len(spies["simplex"])
    assert 0 < stats.iis_probes < stats.lp_solves
    assert stats.lp_pivots > 0
    assert {"lp_solves", "lp_pivots", "iis_probes"} <= set(stats.as_dict())


# ----------------------------------------------------------------------
# Frozen copy of the re-solve-based refinement
# ----------------------------------------------------------------------
def _tags(rows) -> List[int]:
    return [r.tag for r in rows if isinstance(r.tag, int)]


def _legacy_check_component(adapter, component):
    if isinstance(adapter, DifferenceLinearAdapter) and is_difference_system(component):
        return adapter._difference.check(component)
    if component.integer_variables():
        return adapter._branch_bound.check(component)
    return adapter._simplex.check(component)


def _legacy_check(adapter, system):
    for component in system.split_components():
        result = _legacy_check_component(adapter, component)
        if result.status is not LPStatus.FEASIBLE:
            return result.status
    return LPStatus.FEASIBLE


def _legacy_extract_iis(system, solver):
    rows = list(system.rows)
    first = solver.check(LinearSystem(rows, system.domains))
    if first.status is not LPStatus.INFEASIBLE:
        raise ValueError("extract_iis called on a feasible system")
    if first.core_indices:
        core = [rows[i] for i in first.core_indices]
        if not is_infeasible_subset(core, system.domains, solver):
            core = list(rows)
    else:
        core = list(rows)
    index = 0
    while index < len(core):
        candidate = core[:index] + core[index + 1 :]
        if candidate and is_infeasible_subset(candidate, system.domains, solver):
            core = candidate
        elif not candidate:
            break
        else:
            index += 1
    return core


def _legacy_simplex_refine(adapter, system) -> Tuple[List[int], bool]:
    if not adapter.refine_minimal:
        return _tags(system.rows), False
    for component in system.split_components():
        if _legacy_check_component(adapter, component).status is not LPStatus.FEASIBLE:
            if adapter._simplex.check(component).status is LPStatus.INFEASIBLE:
                return _tags(_legacy_extract_iis(component, adapter._simplex)), True
            return _tags(component.rows), False
    return _tags(system.rows), False


def _legacy_refine(adapter, system) -> Tuple[List[int], bool]:
    if isinstance(adapter, DifferenceLinearAdapter):
        for component in system.split_components():
            if is_difference_system(component):
                result = adapter._difference.check(component)
                if result.status is LPStatus.INFEASIBLE:
                    rows = [component.rows[i] for i in result.core_indices]
                    return _tags(rows), True
    return _legacy_simplex_refine(adapter, system)


# ----------------------------------------------------------------------
# Random infeasible systems
# ----------------------------------------------------------------------
_RELATIONS = (LE, GE, LT, GT, EQ)


def _real_component(rng, names, integer):
    rows = []
    for _ in range(rng.randint(2, 5)):
        width = rng.randint(1, min(3, len(names)))
        coeffs = {v: rng.choice((-3, -2, -1, 1, 2, 3)) for v in rng.sample(names, width)}
        rows.append(row(coeffs, rng.choice(_RELATIONS), rng.randint(-6, 6)))
    if rng.random() < 0.6:
        # A bound pair on one variable that conflicts most of the time.
        var = rng.choice(names)
        low = rng.randint(-2, 4)
        rows.append(row({var: 1}, rng.choice((GE, GT)), low))
        rows.append(row({var: 1}, rng.choice((LE, LT)), low - rng.randint(0, 2)))
    if integer:
        # Coefficient-2 rows that only half-integers satisfy: LP-feasible,
        # integer-infeasible unless another row already conflicts.
        var = rng.choice(names)
        odd = 2 * rng.randint(-3, 3) + 1
        rows.append(row({var: 2}, GE, odd))
        rows.append(row({var: 2}, LE, odd))
    return rows


def _difference_component(rng, names):
    rows = []
    for _ in range(rng.randint(2, 6)):
        x, y = rng.sample(names, 2)
        rows.append(row({x: 1, y: -1}, rng.choice(_RELATIONS), rng.randint(-4, 3)))
    cycle = rng.sample(names, min(len(names), rng.randint(2, 3)))
    for x, y in zip(cycle, cycle[1:] + cycle[:1]):
        rows.append(row({x: 1, y: -1}, rng.choice((LE, LT)), rng.randint(-2, 1)))
    var = rng.choice(names)
    rows.append(row({var: rng.choice((1, -1))}, rng.choice((LE, GE)), rng.randint(-3, 3)))
    return rows


def random_system(rng) -> Tuple[LinearSystem, Tuple[str, ...]]:
    rows: List[LinearConstraint] = []
    domains: Dict[str, str] = {}
    kinds = []
    for index in range(rng.randint(1, 3)):
        kind = rng.choice(("real", "real", "difference", "integer"))
        kinds.append(kind)
        names = [f"c{index}v{i}" for i in range(rng.randint(2, 4))]
        if kind == "difference":
            rows.extend(_difference_component(rng, names))
        else:
            rows.extend(_real_component(rng, names, kind == "integer"))
            if kind == "integer":
                domains.update({name: "int" for name in names})
    rng.shuffle(rows)
    tagged = [
        LinearConstraint(r.coeffs, r.relation, r.bound, None if rng.random() < 0.1 else tag)
        for tag, r in enumerate(rows, start=1)
    ]
    return LinearSystem(tagged, domains), tuple(kinds)


ADAPTERS = {
    "simplex": SimplexLinearAdapter,
    "difference": DifferenceLinearAdapter,
    "branch-bound": BranchBoundLinearAdapter,
}


def _assert_irreducible(rows, tags):
    by_tag = {r.tag: r for r in rows}
    core = [by_tag[tag] for tag in tags]
    assert is_infeasible_subset(core)
    for index in range(len(core)):
        assert not is_infeasible_subset(core[:index] + core[index + 1 :])


@pytest.mark.parametrize("warm_start", [True, False], ids=["warm", "cold"])
@pytest.mark.parametrize("name", sorted(ADAPTERS))
def test_refinement_matches_the_re_solve_path(name, warm_start):
    factory = ADAPTERS[name]
    rng = random.Random(20071)
    seen = {"strict": 0, "equality": 0, "multi": 0, "difference": 0,
            "integer": 0, "coarse": 0, "minimal": 0, "irreducible": 0}
    infeasible = revived = 0
    while infeasible < 200:
        system, kinds = random_system(rng)
        new, old = factory(warm_start=warm_start), factory(warm_start=warm_start)
        failed = new.check(system)
        assert (failed.status is LPStatus.INFEASIBLE) == (
            _legacy_check(old, system) is LPStatus.INFEASIBLE
        )
        if failed.status is LPStatus.FEASIBLE:
            continue
        infeasible += 1
        refinement = new.refine(system, failed)
        hits = old.work_counters()["warm_start_hits"]
        tags, minimal = _legacy_refine(old, system)
        rows = failed.component.rows
        checkable = all(isinstance(r.tag, int) for r in rows)
        if (refinement.conflicting_tags, refinement.minimal) != (tags, minimal):
            # The one known difference: the re-solve path re-checked a
            # difference component through the infeasible-core cache, which
            # re-runs Bellman-Ford on the rows shaped like the cached cycle
            # and can close the cycle through a parallel row.  Refinement
            # now returns the deciding check's own cycle; both are IISes.
            assert name == "difference" and warm_start, system.rows
            assert old.work_counters()["warm_start_hits"] > hits
            assert refinement.minimal and minimal
            assert refinement.conflicting_tags == _tags(
                rows[i] for i in failed.core_indices
            )
            if checkable:
                _assert_irreducible(rows, tags)
            revived += 1

        relations = {r.relation for r in system.rows}
        seen["strict"] += bool(relations & {LT, GT})
        seen["equality"] += EQ in relations
        seen["multi"] += len(kinds) > 1
        seen["difference"] += "difference" in kinds
        seen["integer"] += "integer" in kinds
        seen["minimal" if refinement.minimal else "coarse"] += 1
        if refinement.minimal and checkable:
            # An untagged row could be in the core, unseen in the tags.
            seen["irreducible"] += 1
            _assert_irreducible(rows, refinement.conflicting_tags)
    assert all(seen.values()), seen
    assert revived <= infeasible // 20, revived
