"""Workload definitions of the repository benchmark.

Each workload is a bank of AB-queries with known verdicts, taken from the
paper's evaluation tables (Sec. 5) and the BMC unroll families.  A workload
builds *fresh* instances for every pass (the expression intern table is
cleared first), so no pass inherits another pass's memoized expression
state; the seed only fixes the query order.

Importing this module imports the solver package; ``run.py`` times that
import as part of set-up.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Sequence

from repro import ABSolverConfig
from repro.benchgen import (
    PUZZLES,
    check_grid,
    decode_solution,
    div_operator_problem,
    esat_problem,
    fischer_problem,
    fischer_unroll_family,
    fischer_unsat_problem,
    nonlinear_unsat_problem,
    parse_grid,
    steering_problem,
    sudoku_problem,
    watertank_unroll_family,
)
from repro.core.expr import clear_intern_table

__all__ = ["Query", "Family", "Workload", "WORKLOADS", "model_ok"]


def model_ok(problem, result, assumptions: Sequence[int] = ()) -> bool:
    """A SAT answer's model satisfies every clause, definition and assumption."""
    model = result.model
    if model is None:
        return False
    boolean = model.boolean
    if any(boolean.get(abs(lit), False) != (lit > 0) for lit in assumptions):
        return False
    return problem.check_model(boolean, model.theory)


def _sudoku_ok(puzzle_id: str) -> Callable:
    clues = parse_grid(PUZZLES[puzzle_id])

    def validate(problem, result) -> bool:
        if not model_ok(problem, result):
            return False
        return check_grid(decode_solution(result.model.theory), clues)

    return validate


class Query(NamedTuple):
    """One one-shot query: a fresh-instance factory and its known verdict."""

    label: str
    build: Callable[[], object]
    expected: str
    validate: Callable = model_ok

    attempts = 1

    def describe(self) -> str:
        return f"{self.label}:{self.expected}"


class Family(NamedTuple):
    """One unroll family checked at depths 1..``max_depth`` through a
    single session that asserts only the per-depth deltas."""

    label: str
    factory: Callable[[int], object]
    max_depth: int

    def build(self):
        return self.factory(self.max_depth)

    @property
    def attempts(self) -> int:
        return self.max_depth

    def describe(self) -> str:
        return f"{self.label}@depths1-{self.max_depth}"


class Workload:
    """A bank of queries (one fresh ``ABSolver`` each) or of unroll
    families (one ``SolverSession`` each), solved under one config."""

    def __init__(self, name: str, config: Dict, items: Sequence):
        self.name = name
        self.config = dict(config)
        self.items = list(items)
        self.kind = "session" if isinstance(self.items[0], Family) else "one-shot"

    def solver_config(self) -> ABSolverConfig:
        return ABSolverConfig(**self.config)

    def order(self, seed: int) -> List:
        """The seed permutes the item order; the instances never change."""
        items = list(self.items)
        random.Random(seed).shuffle(items)
        return items

    def generate(self, seed: int) -> List[tuple]:
        """Fresh ``(item, instance)`` pairs in seed order."""
        clear_intern_table()
        return [(item, item.build()) for item in self.order(seed)]

    @property
    def attempts_per_pass(self) -> int:
        return sum(item.attempts for item in self.items)

    def shape(self, seed: int) -> Dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "instances": [item.describe() for item in self.order(seed)],
            "order_seed": seed,
        }


def _fischer_sat(n: int) -> Query:
    return Query(f"FISCHER{n}", lambda: fischer_problem(n), "sat")


def _fischer_unsat(n: int) -> Query:
    return Query(f"FISCHER{n}-unsat", lambda: fischer_unsat_problem(n), "unsat")


#: The paper's Table 1 rows (nonlinear problems).
TABLE1 = [
    Query("car-steering", steering_problem, "sat"),
    Query("esat_n11_m8_nonlinear", esat_problem, "sat"),
    Query("nonlinear_unsat", nonlinear_unsat_problem, "unsat"),
    Query("div_operator", div_operator_problem, "sat"),
]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "t12_flagship",
            {},
            [_fischer_sat(n) for n in (1, 2, 3)]
            + [_fischer_unsat(n) for n in (2, 3)]
            + TABLE1,
        ),
        Workload(
            "t2_difference",
            {"linear": "difference"},
            [_fischer_sat(n) for n in range(1, 7)],
        ),
        Workload(
            "t3_sudoku",
            {"boolean": "lsat"},
            [
                Query(pid, lambda pid=pid: sudoku_problem(pid), "sat", _sudoku_ok(pid))
                for pid in sorted(PUZZLES)
            ],
        ),
        Workload(
            "bmc_session",
            {},
            [
                Family("fischer-unroll", fischer_unroll_family, 5),
                Family("watertank-unroll", watertank_unroll_family, 5),
            ],
        ),
    )
}
