"""Contract for integer bit-allocation problems plus shared tooling.

An allocation problem is: minimize F(b) subject to C(b) <= budget with
every b_n drawn from a finite integer set. Applications provide F and C
as batch callables that map a (rows, N) integer matrix of candidate
allocations to one value per row; single-vector evaluation goes through
the same callables on a one-row matrix, so every formula has exactly
one implementation. A scalar function f lifts to the batch form with
``lambda mat: np.array([f(row) for row in mat])``. This module adds the
penalty wrapper used by the penalized swarm and an exhaustive oracle
for desk-scale instances.

Objectives may be stochastic underneath (Monte-Carlo rates); the
contract requires implementations to pin their randomness at problem
construction so that repeated evaluation of the same vector returns the
same value and fitness comparisons across candidates are consistent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

BatchFunction = Callable[[np.ndarray], np.ndarray]

DEFAULT_ORACLE_CAP = 10**6


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class SearchSpaceTooLarge(RuntimeError):
    """Exhaustive enumeration refused; the instance exceeds the cap."""


class InfeasibleBudgetError(RuntimeError):
    """No allocation in the allowed set can satisfy the budget."""


@dataclass(frozen=True)
class AllocationProblem:
    """One bit-allocation instance.

    dimension: number of allocation variables N.
    allowed_values: the finite integer set each b_n is drawn from.
    budget_bits: the per-variable average that defines the budget (the
        uniform vector [budget_bits]*N is the canonical feasible start).
    budget: the consumption bound C(b) must not exceed. Stored as a
        number rather than recomputed so nonlinear budgets plug in.
    objective_batch / consumption_batch: F and C over a (rows, N)
        integer matrix, returning one value per row. They are the only
        callables; evaluate_objective / evaluate_consumption pass one
        vector through them as a one-row matrix.
    """

    dimension: int
    allowed_values: tuple[int, ...]
    budget_bits: int
    budget: float
    objective_batch: BatchFunction = field(repr=False)
    consumption_batch: BatchFunction = field(repr=False)
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractViolation(f"dimension must be >= 1, got {self.dimension}")
        allowed = tuple(sorted(set(int(v) for v in self.allowed_values)))
        if not allowed:
            raise ContractViolation("allowed_values must be nonempty")
        object.__setattr__(self, "allowed_values", allowed)
        if not np.isfinite(self.budget):
            raise ContractViolation(f"budget must be finite, got {self.budget}")
        uniform = np.full(self.dimension, self.budget_bits, dtype=np.int64)
        if self.budget_bits in allowed and self.evaluate_consumption(uniform) > self.budget:
            raise ContractViolation(
                "the uniform budget_bits vector must be feasible: "
                f"C={self.evaluate_consumption(uniform)} > budget={self.budget}"
            )

    # -- evaluation helpers ------------------------------------------------

    def _check_vector(self, b) -> np.ndarray:
        b = np.asarray(b)
        if b.shape != (self.dimension,):
            raise ContractViolation(
                f"allocation has shape {b.shape}, expected ({self.dimension},)"
            )
        return b

    def _check_matrix(self, mat) -> np.ndarray:
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[1] != self.dimension:
            raise ContractViolation(
                f"allocation batch has shape {mat.shape}, expected (rows, {self.dimension})"
            )
        return mat

    def _evaluate_batch(self, fn: BatchFunction, mat, what: str) -> np.ndarray:
        mat = self._check_matrix(mat)
        out = np.asarray(fn(mat), dtype=float)
        if out.shape != (mat.shape[0],):
            raise ContractViolation(
                f"batch {what} returned shape {out.shape} for {mat.shape[0]} rows"
            )
        return out

    def evaluate_objective_batch(self, mat) -> np.ndarray:
        return self._evaluate_batch(self.objective_batch, mat, "objective")

    def evaluate_consumption_batch(self, mat) -> np.ndarray:
        return self._evaluate_batch(self.consumption_batch, mat, "consumption")

    def evaluate_objective(self, b) -> float:
        return float(self.evaluate_objective_batch(self._check_vector(b)[None, :])[0])

    def evaluate_consumption(self, b) -> float:
        return float(self.evaluate_consumption_batch(self._check_vector(b)[None, :])[0])

    def is_feasible(self, b) -> bool:
        return self.evaluate_consumption(b) <= self.budget


def penalized_fitness(problem: AllocationProblem, b, penalty_weight: float) -> float:
    """F(b) plus penalty_weight times the budget violation, if any."""
    b = problem._check_vector(b)
    return float(penalized_fitness_batch(problem, b[None, :], penalty_weight)[0])


def penalized_fitness_batch(
    problem: AllocationProblem, mat, penalty_weight: float
) -> np.ndarray:
    """penalized_fitness of every row; the penalized swarm's cost."""
    if not penalty_weight > 0:
        raise ContractViolation(f"penalty_weight must be > 0, got {penalty_weight}")
    excess = problem.evaluate_consumption_batch(mat) - problem.budget
    return problem.evaluate_objective_batch(mat) + penalty_weight * np.maximum(0.0, excess)


def _candidate_chunks(
    allowed: tuple[int, ...], dimension: int, chunk_rows: int
) -> Iterable[np.ndarray]:
    it = itertools.product(allowed, repeat=dimension)
    while True:
        block = list(itertools.islice(it, chunk_rows))
        if not block:
            return
        yield np.array(block, dtype=np.int64)


def brute_force_optimum(
    problem: AllocationProblem, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[np.ndarray, float]:
    """Exhaustively minimize F over all feasible allocations.

    Candidates are enumerated in lexicographic order of the allowed
    values, and only strict improvements replace the incumbent, so ties
    resolve to the lexicographically smallest vector. Single threaded by
    contract (determinism over speed).
    """
    size = len(problem.allowed_values) ** problem.dimension
    if size > cap:
        raise SearchSpaceTooLarge(
            f"{len(problem.allowed_values)}^{problem.dimension} = {size} candidates "
            f"exceeds the cap of {cap}; raise the cap only for instances you can wait on"
        )
    best_vec: Optional[np.ndarray] = None
    best_val = np.inf
    for chunk in _candidate_chunks(problem.allowed_values, problem.dimension, 65536):
        feasible = problem.evaluate_consumption_batch(chunk) <= problem.budget
        if not feasible.any():
            continue
        rows = chunk[feasible]
        vals = problem.evaluate_objective_batch(rows)
        i = int(np.argmin(vals))  # first minimum = lexicographically smallest
        if vals[i] < best_val:
            best_val = float(vals[i])
            best_vec = rows[i].copy()
    if best_vec is None:
        raise InfeasibleBudgetError(
            f"no allocation in {problem.allowed_values}^{problem.dimension} "
            f"satisfies C(b) <= {problem.budget}"
        )
    return best_vec, best_val
