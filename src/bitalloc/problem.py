"""Contract for integer bit-allocation problems plus shared tooling.

An allocation problem is: minimize F(b) subject to C(b) <= budget with
every b_n drawn from one contiguous integer range, so the candidates
form a lattice. Applications provide F and C as batch callables that
map a (rows, N) integer matrix of candidate allocations to one value
per row; single-vector evaluation goes through the same callables on a
one-row matrix, so every formula has exactly one implementation. A
scalar function f lifts to the batch form with ``lambda mat:
np.array([f(row) for row in mat])``. This module adds the penalty
wrapper used by the penalized swarm, the row chunking of the batch
kernels, the reader of the applications' text files, the lattice index,
and an exhaustive oracle for desk-scale instances.

Objectives may be stochastic underneath (Monte-Carlo rates); the
contract requires implementations to pin their randomness at problem
construction so that repeated evaluation of the same vector returns the
same value and fitness comparisons across candidates are consistent.
A row's value may still depend, in the last bits, on the batch it is
evaluated in (BLAS blocking, ``einsum`` path choice), so values agree
across batch compositions to rounding only; the swarm engine pins one
value per distinct row for each search. A NaN value breaks the
contract: the batch evaluators reject it and name the row.

A problem may also supply objective_step_down(mat, lower), an (r, n)
matrix whose entry [i, j] is F(row i of mat with coordinate j set to
lower[i, j], one bit lower or, at the floor, unchanged). The greedy
repair then asks it for every one-coordinate step down at once instead
of evaluating r * n candidate rows (a swarm search whose memo engages
looks them up instead). Its values must agree with objective_batch on
those rows to rounding, and equal F(row i) exactly where a coordinate's
change leaves F's inputs unchanged, so exact ties stay ties. The hook
belongs to its F: a copy made with dataclasses.replace that swaps
objective_batch for a different F must drop it (objective_step_down=
None); a copy whose new objective_batch wraps the same F (a counter, a
memo, a tracer) keeps it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

BatchFunction = Callable[[np.ndarray], np.ndarray]
StepDownFunction = Callable[[np.ndarray, np.ndarray], np.ndarray]

DEFAULT_ORACLE_CAP = 10**6


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


class SearchSpaceTooLarge(RuntimeError):
    """Exhaustive enumeration refused; the instance exceeds the cap."""


class InfeasibleBudgetError(RuntimeError):
    """No allocation within the budget could be produced: run_ppso's
    penalty was too weak, or fir.lc_float_map ran out of demotions. The
    uniform start is feasible by contract, so nothing else raises it."""


@dataclass(frozen=True)
class AllocationProblem:
    """One bit-allocation instance.

    dimension: number of allocation variables N.
    allowed_values: the contiguous integer range each b_n is drawn
        from; a set with a gap is a ContractViolation.
    budget_bits: the budget's per-variable average, one of allowed_values;
        the uniform start [budget_bits]*N must be feasible.
    budget: the consumption bound C(b) must not exceed. Stored as a
        number rather than recomputed so nonlinear budgets plug in.
    objective_batch / consumption_batch: F and C over a (rows, N)
        integer matrix, returning one value per row. They are the only
        callables; evaluate_objective / evaluate_consumption pass one
        vector through them as a one-row matrix.
    objective_step_down: optional F of every one-coordinate change of
        each row at once (see the module docstring); None evaluates the
        candidate rows through objective_batch.
    """

    dimension: int
    allowed_values: tuple[int, ...]
    budget_bits: int
    budget: float
    objective_batch: BatchFunction = field(repr=False)
    consumption_batch: BatchFunction = field(repr=False)
    name: str = ""
    objective_step_down: Optional[StepDownFunction] = field(default=None, repr=False)

    def __post_init__(self):
        if self.dimension < 1:
            raise ContractViolation(f"dimension must be >= 1, got {self.dimension}")
        allowed = tuple(sorted(set(int(v) for v in self.allowed_values)))
        if not allowed:
            raise ContractViolation("allowed_values must be nonempty")
        if allowed[-1] - allowed[0] + 1 != len(allowed):
            raise ContractViolation(f"allowed_values must be a contiguous range, got {allowed}")
        object.__setattr__(self, "allowed_values", allowed)
        if not np.isfinite(self.budget):
            raise ContractViolation(f"budget must be finite, got {self.budget}")
        if self.budget_bits not in allowed:
            raise ContractViolation(
                f"budget_bits {self.budget_bits} is not in allowed_values {allowed}"
            )
        uniform = np.full(self.dimension, self.budget_bits, dtype=np.int64)
        if self.evaluate_consumption(uniform) > self.budget:
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
        if np.isnan(out).any():
            i = int(np.flatnonzero(np.isnan(out))[0])
            raise ContractViolation(
                f"batch {what} returned NaN for row {i}, allocation {mat[i].tolist()}"
            )
        return out

    def evaluate_objective_batch(self, mat) -> np.ndarray:
        return self._evaluate_batch(self.objective_batch, mat, "objective")

    def evaluate_step_down_batch(self, mat, lower) -> np.ndarray:
        """objective_step_down(mat, lower), checked like the batch evaluators."""
        mat = self._check_matrix(mat)
        out = np.asarray(self.objective_step_down(mat, lower), dtype=float)
        if out.shape != mat.shape:
            raise ContractViolation(
                f"objective_step_down returned shape {out.shape} for {mat.shape[0]} rows, "
                f"expected {mat.shape}"
            )
        if np.isnan(out).any():
            i, j = (int(k) for k in np.argwhere(np.isnan(out))[0])
            raise ContractViolation(
                f"objective_step_down returned NaN for row {i}, coordinate {j}: "
                f"allocation {mat[i].tolist()} with b_{j} = {lower[i, j]}"
            )
        return out

    def evaluate_consumption_batch(self, mat) -> np.ndarray:
        return self._evaluate_batch(self.consumption_batch, mat, "consumption")

    def evaluate_objective(self, b) -> float:
        return float(self.evaluate_objective_batch(self._check_vector(b)[None, :])[0])

    def evaluate_consumption(self, b) -> float:
        return float(self.evaluate_consumption_batch(self._check_vector(b)[None, :])[0])

    def is_feasible(self, b) -> bool:
        return self.evaluate_consumption(b) <= self.budget


def by_chunks(fn: BatchFunction, mat: np.ndarray, chunk_rows: int) -> np.ndarray:
    """fn over blocks of at most chunk_rows rows of mat, so a batch kernel's
    temporaries stay bounded; one value per row, empty for no rows."""
    out = np.empty(mat.shape[0])
    for start in range(0, mat.shape[0], chunk_rows):
        out[start : start + chunk_rows] = fn(mat[start : start + chunk_rows])
    return out


def read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ContractViolation naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ContractViolation(f"{path}: not UTF-8 text ({exc})") from None


def penalized_fitness_batch(
    problem: AllocationProblem, mat, penalty_weight: float
) -> np.ndarray:
    """F plus penalty_weight times the budget violation, if any, of
    every row; the penalized swarm's cost. The weight must be finite,
    since inf times a zero violation is NaN."""
    if not 0 < penalty_weight < np.inf:
        raise ContractViolation(f"need a finite penalty_weight > 0, got {penalty_weight}")
    excess = problem.evaluate_consumption_batch(mat) - problem.budget
    return problem.evaluate_objective_batch(mat) + penalty_weight * np.maximum(0.0, excess)


def lattice_index(problem: AllocationProblem, mat) -> np.ndarray:
    """Each row's index in the lattice of allowed allocations: b - lo in
    mixed radix len(allowed_values), first coordinate most significant,
    so index order is lexicographic. The swarm's memos key rows by it
    and brute_force_optimum enumerates it; lattice_rows is its inverse."""
    shape = (len(problem.allowed_values),) * problem.dimension
    return np.ravel_multi_index(tuple((np.asarray(mat) - problem.allowed_values[0]).T), shape)


def lattice_rows(problem: AllocationProblem, index) -> np.ndarray:
    """The (len(index), N) int64 allocations with these lattice_index values."""
    shape = (len(problem.allowed_values),) * problem.dimension
    return np.stack(np.unravel_index(index, shape), axis=1) + problem.allowed_values[0]


def brute_force_optimum(
    problem: AllocationProblem, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[np.ndarray, float]:
    """Exhaustively minimize F over all feasible allocations.

    Candidates are enumerated in lattice_index order, which is
    lexicographic, in chunks of 65,536 rows. The first feasible chunk's
    minimum is the first incumbent, even at F = +inf, and after it only
    strict improvements replace the incumbent, so ties resolve to the
    lexicographically smallest feasible vector. Single threaded by
    contract (determinism over speed). A lattice larger than numpy's
    index type can count is refused whatever the cap.
    """
    base, n = len(problem.allowed_values), problem.dimension
    size = base**n
    if size > np.iinfo(np.intp).max:
        raise SearchSpaceTooLarge(f"{base}^{n} = {size} candidates are more than numpy can index")
    if size > cap:
        raise SearchSpaceTooLarge(
            f"{base}^{n} = {size} candidates "
            f"exceeds the cap of {cap}; raise the cap only for instances you can wait on"
        )
    best_vec: Optional[np.ndarray] = None
    best_val = np.inf
    for start in range(0, size, 65536):
        chunk = lattice_rows(problem, np.arange(start, min(start + 65536, size)))
        feasible = problem.evaluate_consumption_batch(chunk) <= problem.budget
        if not feasible.any():
            continue
        rows = chunk[feasible]
        vals = problem.evaluate_objective_batch(rows)
        i = int(np.argmin(vals))  # first minimum = lexicographically smallest
        if best_vec is None or vals[i] < best_val:
            best_val = float(vals[i])
            best_vec = rows[i].copy()
    assert best_vec is not None  # the uniform vector is feasible
    return best_vec, best_val
