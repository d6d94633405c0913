"""Particle-swarm searches over integer bit allocations.

Two variants share one synchronous engine:

* the penalized swarm minimizes F(b) + penalty_weight * max(0, C(b) - budget)
  and is free to wander through infeasible allocations;
* the repair swarm minimizes plain F(b) but forces every particle back
  into the feasible region after each move, using a greedy budget
  repair that always removes the bit whose loss hurts the objective
  least.

All particles start from the uniform allocation at the budget average,
which the problem contract guarantees to be feasible, so the very first
evaluation already provides a feasible incumbent and the reported best
can never be worse than the uniform baseline.

Everything is vectorized over the population: objectives are evaluated
through the problem's batch interface on (rows, N) integer matrices,
and best-reduction happens in particle-index order so results do not
depend on evaluation scheduling. Runs are deterministic for a given
seed.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    penalized_fitness_batch,
)
from .quantizers import round_half_away

# Seed-sequence domain tag that decouples the engine's draws from any
# application-level generator seeded with the same small integer.
_SEED_DOMAIN = 0xB17A


@dataclass(frozen=True)
class SwarmConfig:
    """Hyperparameters for one swarm search.

    The inertia weight decays linearly from w_max to w_min while the
    cognitive coefficient ramps from c1_max down to c1_min and the
    social coefficient from c2_min up to c2_max, so early iterations
    explore around personal bests and late iterations contract on the
    global best. per_dimension_draws selects whether the stochastic
    acceleration factors are drawn per coordinate (default) or once per
    particle.
    """

    n_pop: int = 550
    i_iter: int = 100
    w_min: float = 0.4
    w_max: float = 0.9
    c1_min: float = 0.5
    c1_max: float = 2.5
    c2_min: float = 0.5
    c2_max: float = 2.5
    v_min: float = -3.0
    v_max: float = 3.0
    penalty_weight: float = 1e3
    restarts: int = 10
    seed: int = 0
    per_dimension_draws: bool = True

    def __post_init__(self):
        if self.n_pop < 1 or self.i_iter < 1 or self.restarts < 1:
            raise ContractViolation("n_pop, i_iter and restarts must all be >= 1")
        if not self.v_min < self.v_max:
            raise ContractViolation(f"need v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if not self.w_min <= self.w_max:
            raise ContractViolation(f"need w_min <= w_max, got [{self.w_min}, {self.w_max}]")
        if not 0 < self.c1_min <= self.c1_max:
            raise ContractViolation(
                f"need 0 < c1_min <= c1_max, got [{self.c1_min}, {self.c1_max}]"
            )
        if not 0 < self.c2_min <= self.c2_max:
            raise ContractViolation(
                f"need 0 < c2_min <= c2_max, got [{self.c2_min}, {self.c2_max}]"
            )
        if not self.penalty_weight > 0:
            raise ContractViolation(f"penalty_weight must be > 0, got {self.penalty_weight}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Best allocation found by one search.

    best_cost is the fitness the engine minimized: the penalized
    fitness for the penalized variant (equal to the raw objective
    whenever best is feasible) and the raw objective for the repair
    variant. trace[k] is the incumbent cost after k iterations
    (trace[0] follows the initial evaluation), so it has i_iter + 1
    entries and is nonincreasing. When the search ran with restarts,
    seed records which restart produced the winner and elapsed the
    total wall time over all restarts.
    """

    best: np.ndarray
    best_cost: float
    trace: np.ndarray
    seed: int
    elapsed: float


def schedule_hyperparams(config: SwarmConfig, it: int) -> tuple[float, float, float]:
    """(w, c1, c2) at iteration it, counted 1..i_iter."""
    if not 1 <= it <= config.i_iter:
        raise ContractViolation(f"iteration index {it} outside 1..{config.i_iter}")
    frac = it / config.i_iter
    w = config.w_max - (config.w_max - config.w_min) * frac
    c1 = config.c1_max + (config.c1_min - config.c1_max) * frac
    c2 = config.c2_min + (config.c2_max - config.c2_min) * frac
    return w, c1, c2


def _allowed_array(problem: AllocationProblem) -> np.ndarray:
    return np.asarray(problem.allowed_values, dtype=np.int64)


def snap_to_allowed(values: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Round each entry to the nearest member of the allowed set.

    Ties between two equally near members resolve to the smaller one.
    For a contiguous integer range this is just a clip.
    """
    values = np.asarray(values)
    lo, hi = int(allowed[0]), int(allowed[-1])
    if hi - lo + 1 == allowed.size:
        return np.clip(values, lo, hi).astype(np.int64)
    idx = np.searchsorted(allowed, values)
    idx = np.clip(idx, 1, allowed.size - 1)
    below = allowed[idx - 1]
    above = allowed[idx]
    pick_above = (above - values) < (values - below)
    out = np.where(pick_above, above, below)
    return np.clip(out, lo, hi).astype(np.int64)


# -- sensitivity and greedy budget repair ------------------------------------


def _step_down_values(
    problem: AllocationProblem, allowed: np.ndarray, mat: np.ndarray
) -> np.ndarray:
    """(r, n) values F(row i of mat with coordinate j stepped down to
    the next smaller allowed value), +inf where none lies below. The
    r * n candidates go to the objective as one batch; floor coordinates
    are evaluated unchanged, then masked."""
    r, n = mat.shape
    idx = np.searchsorted(allowed, mat)
    diag = np.arange(n)
    candidates = np.repeat(mat[:, None, :], n, axis=1)  # (r, n, n)
    candidates[:, diag, diag] = allowed[np.maximum(idx - 1, 0)]
    values = problem.evaluate_objective_batch(candidates.reshape(r * n, n)).reshape(r, n)
    values[idx == 0] = np.inf
    return values


def sensitivity(problem: AllocationProblem, b, j: int) -> float:
    """Objective increase from removing one bit from coordinate j.

    Returns F(b with b_j stepped down to the next smaller allowed
    value) - F(b), as entry j of sensitivity_vector. The caller is
    responsible for treating coordinates already at the smallest
    allowed value as infinitely sensitive; this function rejects them.
    """
    b = np.asarray(problem._check_vector(b), dtype=np.int64)
    if not 0 <= j < problem.dimension:
        raise ContractViolation(f"coordinate {j} outside 0..{problem.dimension - 1}")
    if b[j] <= problem.allowed_values[0]:
        raise ContractViolation(
            f"coordinate {j} is already at the smallest allowed value {problem.allowed_values[0]}"
        )
    return float(sensitivity_vector(problem, b)[j])


def sensitivity_vector(problem: AllocationProblem, b) -> np.ndarray:
    """All coordinate sensitivities at once, +inf where already minimal."""
    allowed = _allowed_array(problem)
    b = np.asarray(problem._check_vector(b), dtype=np.int64)
    return _step_down_values(problem, allowed, b[None, :])[0] - problem.evaluate_objective(b)


def greedy_repair_batch(problem: AllocationProblem, mat: np.ndarray) -> np.ndarray:
    """Force every row of an allocation matrix under the budget.

    Per row: snap to the allowed set; if over budget, rescale by
    budget / C(b) and snap again; then repeatedly remove the single bit
    whose removal increases the objective least (lowest index on ties)
    until the row is feasible. Rows that were feasible to begin with
    pass through untouched. Assumes consumption is nondecreasing in
    every coordinate, which all applications here satisfy.
    """
    allowed = _allowed_array(problem)
    mat = snap_to_allowed(problem._check_matrix(mat), allowed)
    idx = np.searchsorted(allowed, mat)  # exact: every entry is in the set

    cons = problem.evaluate_consumption_batch(allowed[idx])
    over = cons > problem.budget
    if over.any():
        scale = problem.budget / cons[over]
        scaled = round_half_away(allowed[idx[over]] * scale[:, None])
        idx[over] = np.searchsorted(allowed, snap_to_allowed(scaled, allowed))
        cons[over] = problem.evaluate_consumption_batch(allowed[idx[over]])
        over = cons > problem.budget

    while over.any():
        rows = idx[over]  # (r, n) indices into the allowed set
        if (~(rows > 0).any(axis=1)).any():
            raise InfeasibleBudgetError(
                "budget repair ran out of bits to remove: even the all-minimum "
                f"allocation exceeds the budget of {problem.budget}"
            )
        values = _step_down_values(problem, allowed, allowed[rows])
        j = np.argmin(values, axis=1)  # lowest index wins ties
        rows[np.arange(rows.shape[0]), j] -= 1
        idx[over] = rows
        cons[over] = problem.evaluate_consumption_batch(allowed[rows])
        over = cons > problem.budget
    return allowed[idx]


def greedy_repair(problem: AllocationProblem, b) -> np.ndarray:
    """Single-vector form of the batch repair."""
    b = problem._check_vector(b)
    return greedy_repair_batch(problem, np.asarray(b, dtype=np.int64)[None, :])[0]


# -- the engine --------------------------------------------------------------


def step_swarm(
    pos: np.ndarray,
    vel: np.ndarray,
    p_best: np.ndarray,
    g_best: np.ndarray,
    w: float,
    c1: float,
    c2: float,
    r1: np.ndarray,
    r2: np.ndarray,
    config: SwarmConfig,
    allowed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous position/velocity update for the whole swarm.

    The new velocity is clamped to [v_min, v_max] before the position
    move, the move rounds half away from zero, and the resulting
    positions snap back into the allowed set.
    """
    vel = w * vel + c1 * r1 * (p_best - pos) + c2 * r2 * (g_best[None, :] - pos)
    np.clip(vel, config.v_min, config.v_max, out=vel)
    pos = snap_to_allowed(pos + round_half_away(vel).astype(np.int64), allowed)
    return pos, vel


def init_swarm(
    problem: AllocationProblem, config: SwarmConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial positions, velocities and global-best guess.

    Every particle starts at the uniform budget-average allocation;
    velocities are uniform on [v_min, v_max]; the pre-evaluation global
    best is a random allocation carrying infinite cost, so the first
    evaluated batch always replaces it.
    """
    allowed = _allowed_array(problem)
    if problem.budget_bits not in problem.allowed_values:
        warnings.warn(
            f"budget average {problem.budget_bits} is not an allowed value; "
            "starting from the nearest member instead",
            stacklevel=2,
        )
    start = snap_to_allowed(
        np.full(problem.dimension, problem.budget_bits, dtype=np.int64), allowed
    )
    pos = np.repeat(start[None, :], config.n_pop, axis=0)
    vel = rng.uniform(config.v_min, config.v_max, size=(config.n_pop, problem.dimension))
    g_guess = allowed[rng.integers(0, allowed.size, size=problem.dimension)]
    return pos, vel, g_guess


def _run_single(
    problem: AllocationProblem,
    config: SwarmConfig,
    seed: int,
    repair: bool,
) -> RunResult:
    t0 = time.perf_counter()
    rng = np.random.default_rng([_SEED_DOMAIN, int(seed)])
    allowed = _allowed_array(problem)
    costs = (
        problem.evaluate_objective_batch
        if repair
        else partial(penalized_fitness_batch, problem, penalty_weight=config.penalty_weight)
    )

    pos, vel, g_best = init_swarm(problem, config, rng)
    g_cost = np.inf
    if repair:
        pos = greedy_repair_batch(problem, pos)

    cost = costs(pos)
    p_best = pos.copy()
    p_cost = cost.copy()
    i = int(np.argmin(p_cost))
    if p_cost[i] < g_cost:
        g_best = p_best[i].copy()
        g_cost = float(p_cost[i])

    trace = np.empty(config.i_iter + 1, dtype=float)
    trace[0] = g_cost

    draw_shape = (
        (config.n_pop, problem.dimension)
        if config.per_dimension_draws
        else (config.n_pop, 1)
    )
    for it in range(1, config.i_iter + 1):
        w, c1, c2 = schedule_hyperparams(config, it)
        r1 = rng.random(draw_shape)
        r2 = rng.random(draw_shape)
        pos, vel = step_swarm(pos, vel, p_best, g_best, w, c1, c2, r1, r2, config, allowed)
        if repair:
            pos = greedy_repair_batch(problem, pos)
        cost = costs(pos)
        improved = cost < p_cost
        p_best[improved] = pos[improved]
        p_cost[improved] = cost[improved]
        i = int(np.argmin(p_cost))
        if p_cost[i] < g_cost:
            g_best = p_best[i].copy()
            g_cost = float(p_cost[i])
        trace[it] = g_cost

    return RunResult(
        best=g_best,
        best_cost=g_cost,
        trace=trace,
        seed=int(seed),
        elapsed=time.perf_counter() - t0,
    )


def _run_restarts(problem: AllocationProblem, config: SwarmConfig, repair: bool) -> RunResult:
    t0 = time.perf_counter()
    best: Optional[RunResult] = None
    for r in range(config.restarts):
        result = _run_single(problem, config, config.seed + r, repair)
        if best is None or result.best_cost < best.best_cost:
            best = result
    assert best is not None
    return replace(best, elapsed=time.perf_counter() - t0)


def run_ppso(problem: AllocationProblem, config: SwarmConfig = SwarmConfig()) -> RunResult:
    """Penalized swarm search. The returned best may in principle be
    infeasible if the penalty weight is set too low for the objective
    scale; with the defaults every application here returns feasible
    allocations."""
    return _run_restarts(problem, config, repair=False)


def run_gcpso(problem: AllocationProblem, config: SwarmConfig = SwarmConfig()) -> RunResult:
    """Repair swarm search. Every evaluated particle is feasible, so the
    returned best always satisfies the budget."""
    return _run_restarts(problem, config, repair=True)
