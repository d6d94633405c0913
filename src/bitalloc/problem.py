"""Contract for integer bit-allocation problems plus shared tooling.

An allocation problem is: minimize F(b) subject to C(b) <= budget with
every b_n drawn from one contiguous integer range, so the candidates
form a lattice. Applications provide F and C as batch callables that
map a (rows, N) integer matrix of candidate allocations to one value
per row; single-vector evaluation goes through the same callables on a
one-row matrix, so every formula has exactly one implementation. A
scalar function f lifts to the batch form with ``lambda mat:
np.array([f(row) for row in mat])``. This module adds the integer rule
every size, width and seed passes (require_int), the penalty wrapper
used by the penalized swarm, the row chunking of the batch kernels, the
reader of the applications' text files, the lattice index, and an
exhaustive oracle for desk-scale instances.

Objectives may be stochastic underneath (Monte-Carlo rates); the
contract requires implementations to pin their randomness at problem
construction so that repeated evaluation of the same vector returns the
same value and fitness comparisons across candidates are consistent.
A row's value may still depend, in the last bits, on the batch it is
evaluated in (BLAS blocking, ``einsum`` path choice), so values agree
across batch compositions to rounding only; the swarm engine pins one
value per distinct row for each search. A NaN value breaks the
contract: the batch evaluators reject it and name the row. So does a
row with a fractional or non-finite entry (check_batch, which the greedy
repair calls too): a truncating objective would value another row.

evaluate_step_down_batch(mat) values every one-coordinate step down
of every row at once, for any problem: an (r, n) matrix whose entry
[i, j] is F(row i of mat with coordinate j one bit lower, or unchanged
where b_j is already the lowest allowed value). The greedy repair asks
it for each pass. Without a hook it sends the r * n candidate rows
through objective_batch as one batch (a swarm search whose memo engages
looks them up there). A problem may supply objective_step_down(mat),
which returns the same matrix faster; it only makes the method cheaper.
Its values must agree with objective_batch on those rows to rounding,
and equal F(row i) exactly where a coordinate's change leaves F's
inputs unchanged, so exact ties stay ties. The hook belongs to its F:
a copy made with dataclasses.replace that swaps objective_batch for a
different F must drop it (objective_step_down=None); a copy whose new
objective_batch wraps the same F (a counter, a memo, a tracer) keeps it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

BatchFunction = Callable[[np.ndarray], np.ndarray]
StepDownFunction = Callable[[np.ndarray], np.ndarray]

DEFAULT_ORACLE_CAP = 10**6


class ContractViolation(ValueError):
    """An argument broke a documented precondition."""


def require_int(value, name: str, least: int, most: Optional[int] = None) -> int:
    """value as an int, when it is an integer (a numpy one too, never a
    bool) in least..most; anything else is a ContractViolation naming it.
    A numpy integer leaves as an int, so no later sum or power wraps."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ContractViolation(f"{name} must be an integer, got {value!r}")
    if value < least or (most is not None and value > most):
        bounds = f">= {least}" if most is None else f">= {least} and <= {most}"
        raise ContractViolation(f"{name} must be {bounds}, got {value}")
    return int(value)


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
        from, within +-2**53 so that float64 holds every value exactly;
        a set with a gap or beyond that is a ContractViolation.
    budget_bits: the budget's per-variable average, one of allowed_values;
        the uniform start [budget_bits]*N must be feasible.
    budget: the consumption bound C(b) must not exceed. Stored as a
        number rather than recomputed so nonlinear budgets plug in.
    objective_batch / consumption_batch: F and C over a (rows, N)
        integer matrix, returning one value per row. They are the only
        callables; evaluate_objective / evaluate_consumption pass one
        vector through them as a one-row matrix.
    objective_step_down: optional faster form of evaluate_step_down_batch
        (see the module docstring); None values the candidate rows
        through objective_batch.
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
        object.__setattr__(self, "dimension", require_int(self.dimension, "dimension", 1))
        allowed = tuple(sorted(set(int(v) for v in self.allowed_values)))
        if not allowed:
            raise ContractViolation("allowed_values must be nonempty")
        if allowed[-1] - allowed[0] + 1 != len(allowed):
            raise ContractViolation(f"allowed_values must be a contiguous range, got {allowed}")
        if max(-allowed[0], allowed[-1]) > 2**53:
            raise ContractViolation(f"allowed_values beyond +-2**53: {allowed[0]}..{allowed[-1]}")
        # A caller's tuple already in this form is kept, so the many
        # problems a run builds from one task share that task's tuple.
        given = self.allowed_values
        if not (type(given) is tuple and given == allowed and {type(v) for v in given} == {int}):
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

    def check_batch(self, mat) -> np.ndarray:
        """mat as a (rows, N) array of whole numbers; another shape, or a
        row with a fractional or non-finite entry, is a ContractViolation
        naming it. An integer dtype passes on its dtype alone."""
        mat = np.asarray(mat)
        if mat.ndim != 2 or mat.shape[1] != self.dimension:
            raise ContractViolation(
                f"allocation batch has shape {mat.shape}, expected (rows, {self.dimension})"
            )
        if mat.dtype.kind not in "iu":
            odd = ~np.isfinite(mat) | (np.trunc(mat) != mat)
            if odd.any():
                i = int(np.flatnonzero(odd.any(axis=1))[0])
                raise ContractViolation(
                    f"allocation batch row {i} is not whole numbers: {mat[i].tolist()}"
                )
        return mat

    def _evaluate_batch(self, fn: BatchFunction, mat, what: str) -> np.ndarray:
        mat = self.check_batch(mat)
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

    def evaluate_step_down_batch(self, mat) -> np.ndarray:
        """The (r, n) values F(row i of mat with coordinate j one bit
        lower), F(row i) where b_j is already the lowest allowed value:
        objective_step_down(mat) checked like the batch evaluators, or,
        without the hook, the r * n candidate rows as one objective batch."""
        mat = self.check_batch(mat)
        if self.objective_step_down is None:
            r, n = mat.shape
            diag = np.arange(n)
            candidates = np.repeat(mat[:, None, :], n, axis=1)  # (r, n, n)
            candidates[:, diag, diag] = np.where(mat == self.allowed_values[0], mat, mat - 1)
            return self.evaluate_objective_batch(candidates.reshape(r * n, n)).reshape(r, n)
        out = np.asarray(self.objective_step_down(mat), dtype=float)
        if out.shape != mat.shape:
            raise ContractViolation(
                f"objective_step_down returned shape {out.shape} for {mat.shape[0]} rows, "
                f"expected {mat.shape}"
            )
        if np.isnan(out).any():
            i, j = (int(k) for k in np.argwhere(np.isnan(out))[0])
            raise ContractViolation(
                f"objective_step_down returned NaN for row {i}, coordinate {j}: "
                f"allocation {mat[i].tolist()} with b_{j} = "
                f"{max(int(mat[i, j]) - 1, self.allowed_values[0])}"
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
    with np.errstate(over="ignore"):  # a product past the float range is +inf, the right cost
        penalty = penalty_weight * np.maximum(0.0, excess)
    return problem.evaluate_objective_batch(mat) + penalty


def lattice_index(problem: AllocationProblem, mat) -> np.ndarray:
    """Each row's index in the lattice of allowed allocations: b - lo in
    mixed radix len(allowed_values), first coordinate most significant,
    so index order is lexicographic; a row off the lattice raises. The
    checked definition the swarm memo's radix key is tested against;
    brute_force_optimum enumerates its order, lattice_rows inverts it."""
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
    lexicographic, in chunks of 65,536 rows. The answer is the first
    minimum of the feasible rows, even at F = +inf, so ties resolve to
    the lexicographically smallest feasible vector. Single threaded by
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
    firsts = []  # each feasible chunk's first minimum, its row copied out of the chunk
    for start in range(0, size, 65536):
        chunk = lattice_rows(problem, np.arange(start, min(start + 65536, size)))
        feasible = problem.evaluate_consumption_batch(chunk) <= problem.budget
        if not feasible.any():
            continue
        rows = chunk[feasible]
        vals = problem.evaluate_objective_batch(rows)
        i = int(np.argmin(vals))
        firsts.append((rows[i].copy(), float(vals[i])))
    return min(firsts, key=lambda first: first[1])  # the uniform vector is feasible
