"""Particle-swarm searches over integer bit allocations.

Two variants share one synchronous engine:

* the penalized swarm minimizes F(b) + penalty_weight * max(0, C(b) - budget)
  and is free to wander through infeasible allocations;
* the repair swarm minimizes plain F(b) but forces every particle back
  into the feasible region after each move, using a greedy budget
  repair that always removes the bit whose loss hurts the objective
  least.

Both follow one fixed hyperparameter schedule (W_SCHEDULE, C1_SCHEDULE,
C2_SCHEDULE and V_MAX below), the one convergence.check_schedule
checks; a SwarmConfig sets only the swarm's size, the penalty weight
and the seeding.

All particles start from the uniform allocation at the budget average,
which the problem contract makes allowed and feasible, so the repair
swarm values it unrepaired. That first batch always provides the
incumbent, even when all of it is +inf, so the best is never worse than
the uniform baseline and the repair swarm's best is always feasible.

Everything is vectorized over the population and works on bit values:
the allowed values are one range lo..hi, so moves clip into it and a
step down is b - 1 wherever b > lo. Objectives are evaluated through
the problem's batch interface on (rows, N) integer matrices, and
best-reduction happens in particle-index order so results do not depend
on evaluation scheduling. Runs are deterministic for a given seed.

A search (all its restarts) runs on a copy of the problem whose
objective is one _Objective, so every objective evaluation goes through
it: the swarm's costs, the penalized fitness and the repair's step-down
candidates. It counts the rows sent to the problem
(RunResult.objective_rows). When the allowed lattice is no larger than
the rows one restart evaluates, len(allowed) ** N <= n_pop * (i_iter + 1),
rows must repeat, so it also memoizes: each row is keyed by its
problem.lattice_index, and only rows whose key it has not seen reach
the problem, one per distinct key. An unseen key's value reads NaN:
the contract forbids NaN values and the problem's batch evaluator
rejects one before the memo stores it, so NaN never stands for a real
value. The objective is pure by contract, so memoizing changes no value
beyond pinning one per row for the whole search (a batch objective may
otherwise differ in the last bits between batches). The repair swarm
then also repairs each distinct row once per search and looks its
result up afterwards. With every value pinned, the greedy repair is a
pure function of the row, and each step-down candidate of a row
repaired before is already known, so repairing only the new rows sends
the objective the same new rows, in the same order, as repairing all
of them: no value and no answer moves. Larger spaces bypass both memos.

When the problem supplies objective_step_down and the memo does not
engage, the repair's step-down values come from that hook, and
RunResult.step_down_rows counts the candidates it valued. When the
memo engages, the candidates go through it like every other row:
on a lattice that small they are mostly known already, and a table
lookup costs less than the hook. Hook values are not memoized; they
only rank candidates within one row, and every cost the swarm compares
or reports (the particle costs, best_cost, the trace) comes from the
full objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from .problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    lattice_index,
    lattice_rows,
    penalized_fitness_batch,
)
from .quantizers import round_half_away

# Seed-sequence domain tag that decouples the engine's draws from any
# application-level generator seeded with the same small integer.
_SEED_DOMAIN = 0xB17A


# The fixed schedule, the paper's for both engines: (value at iteration
# 0, value at iteration i_iter) of the inertia weight w and of the
# cognitive and social coefficients c1 and c2, each moving linearly in
# between, so early iterations explore around personal bests and late
# ones contract on the global best. c1 + c2 stays 3 throughout.
# Velocities are clamped to [-V_MAX, V_MAX].
W_SCHEDULE = (0.9, 0.4)
C1_SCHEDULE = (2.5, 0.5)
C2_SCHEDULE = (0.5, 2.5)
V_MAX = 3.0


@dataclass(frozen=True)
class SwarmConfig:
    """Size, penalty and seeding of one swarm search.

    The hyperparameter schedule is fixed (W_SCHEDULE, C1_SCHEDULE,
    C2_SCHEDULE and V_MAX above); the stochastic acceleration factors
    are drawn per particle and per coordinate. A config's [swarm]
    section may set every field but seed, which comes from
    [experiment]; a field it does not set keeps the default here, and
    any other key is an error.
    """

    n_pop: int = 550
    i_iter: int = 100
    penalty_weight: float = 1e3
    restarts: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n_pop < 1 or self.i_iter < 1 or self.restarts < 1:
            raise ContractViolation("n_pop, i_iter and restarts must all be >= 1")
        if not 0 < self.penalty_weight < math.inf:
            raise ContractViolation(f"need a finite penalty_weight > 0, got {self.penalty_weight}")


@dataclass(frozen=True, eq=False)
class RunResult:
    """Best allocation found by one search.

    best is always within the budget, and best_cost is F(best) for both
    engines, since the penalized fitness adds exactly 0.0 on a feasible
    row. trace[k] is the minimized fitness of the incumbent after k
    iterations (trace[0] follows the initial evaluation), so it has
    i_iter + 1 entries, is nonincreasing and ends at best_cost. When
    the search ran with restarts, seed records which restart produced
    the winner. objective_rows counts the rows sent to the problem's
    objective over all restarts; it is deterministic, and below the
    rows the engine asked for when the search memoized. step_down_rows
    counts the candidates valued by the problem's objective_step_down
    hook, r * n per call for r rows of n coordinates (0 without the
    hook), so objective_rows + step_down_rows is all the valuation work
    of the search.
    """

    best: np.ndarray
    best_cost: float
    trace: np.ndarray
    seed: int
    objective_rows: int
    step_down_rows: int


def schedule_hyperparams(it: int, i_iter: int) -> tuple[float, float, float]:
    """(w, c1, c2) at iteration it of i_iter, counted 1..i_iter."""
    if not 1 <= it <= i_iter:
        raise ContractViolation(f"iteration index {it} outside 1..{i_iter}")
    frac = it / i_iter
    w, c1, c2 = (a + (b - a) * frac for a, b in (W_SCHEDULE, C1_SCHEDULE, C2_SCHEDULE))
    return w, c1, c2


# -- greedy budget repair ----------------------------------------------------


def _step_down_values(problem: AllocationProblem, mat: np.ndarray) -> np.ndarray:
    """(r, n) values F(row i of mat with coordinate j one bit lower),
    +inf where b_j is already the lowest allowed value. They come from
    the problem's objective_step_down hook when it has one; otherwise
    the r * n candidates go to the objective as one batch. Either way
    floor coordinates are valued unchanged, then masked."""
    r, n = mat.shape
    floor = mat == problem.allowed_values[0]
    lower = np.where(floor, mat, mat - 1)
    if problem.objective_step_down is not None:
        values = problem.evaluate_step_down_batch(mat, lower)
    else:
        diag = np.arange(n)
        candidates = np.repeat(mat[:, None, :], n, axis=1)  # (r, n, n)
        candidates[:, diag, diag] = lower
        values = problem.evaluate_objective_batch(candidates.reshape(r * n, n)).reshape(r, n)
    values[floor] = np.inf
    return values


def greedy_repair_batch(problem: AllocationProblem, mat: np.ndarray) -> np.ndarray:
    """Force every row of an allocation matrix under the budget.

    Per row: clip into the allowed range; if over budget, rescale by
    budget / C(b), round half away from zero and clip again; then
    repeatedly step down by one bit the coordinate whose step increases
    the objective least (lowest index on ties) until the row is
    feasible. Rows that were feasible to begin with pass through
    untouched. Consumption must be nondecreasing in every coordinate, as
    in all applications here, so the all-minimum row costs no more than
    the uniform start; reaching it over budget is a ContractViolation.
    """
    lo, hi = problem.allowed_values[0], problem.allowed_values[-1]
    mat = np.clip(problem._check_matrix(mat), lo, hi).astype(np.int64)

    cons = problem.evaluate_consumption_batch(mat)
    over = cons > problem.budget
    if over.any():
        scale = problem.budget / cons[over]
        mat[over] = np.clip(round_half_away(mat[over] * scale[:, None]), lo, hi)
        cons[over] = problem.evaluate_consumption_batch(mat[over])
        over = cons > problem.budget

    while over.any():
        rows = mat[over]
        if (rows == lo).all(axis=1).any():
            raise ContractViolation(
                "budget repair ran out of bits to remove: the all-minimum allocation "
                f"exceeds the budget of {problem.budget}, so consumption is not "
                "nondecreasing in every coordinate"
            )
        j = np.argmin(_step_down_values(problem, rows), axis=1)  # lowest index wins ties
        rows[np.arange(rows.shape[0]), j] -= 1
        mat[over] = rows
        cons[over] = problem.evaluate_consumption_batch(rows)
        over = cons > problem.budget
    return mat


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
    lo: int,
    hi: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous position/velocity update for the whole swarm.

    The new velocity is clamped to [-V_MAX, V_MAX] before the position
    move, the move rounds half away from zero, and the resulting
    positions are clipped into the allowed range lo..hi.
    """
    vel = w * vel + c1 * r1 * (p_best - pos) + c2 * r2 * (g_best[None, :] - pos)
    np.clip(vel, -V_MAX, V_MAX, out=vel)
    return np.clip(pos + round_half_away(vel).astype(np.int64), lo, hi), vel


def init_swarm(
    problem: AllocationProblem, n_pop: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Initial positions and velocities.

    Every particle starts at the uniform budget-average allocation;
    velocities are uniform on [-V_MAX, V_MAX]. One random allocation is
    then drawn and discarded: the draw is part of every seed's generator
    sequence, so dropping it would change every answer. The engine takes
    its first global best from the first evaluated batch.
    """
    pos = np.full((n_pop, problem.dimension), problem.budget_bits, dtype=np.int64)
    vel = rng.uniform(-V_MAX, V_MAX, size=(n_pop, problem.dimension))
    rng.integers(0, len(problem.allowed_values), size=problem.dimension)
    return pos, vel


def _memo_engages(problem: AllocationProblem, config: SwarmConfig) -> bool:
    """Whether the allowed lattice is no larger than the rows one restart
    evaluates, so that rows must repeat and a memo pays."""
    return len(problem.allowed_values) ** problem.dimension <= config.n_pop * (config.i_iter + 1)


class _Objective:
    """F for one search, the objective_batch of the engine's copy of the
    problem: counts the rows sent to the problem and, when _memo_engages,
    values and repairs each distinct row once, as the module docstring
    explains. Both tables are dense over the lattice, so each holds at
    most n_pop * (i_iter + 1) entries: table holds each row's value,
    NaN until it is known, and repaired the lattice index of its repair,
    -1 until it is known. step_down counts the candidates of the
    problem's step-down hook, which the engine uses only when the memo
    is off."""

    def __init__(self, problem: AllocationProblem, config: SwarmConfig):
        self.problem = problem
        self.rows = 0
        self.step_down_rows = 0
        self.table: Optional[np.ndarray] = None
        if _memo_engages(problem, config):
            self.table = np.full(len(problem.allowed_values) ** problem.dimension, np.nan)
            self.repaired = np.full(self.table.size, -1, dtype=np.int64)

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        if self.table is None:
            self.rows += mat.shape[0]
            return self.problem.objective_batch(mat)
        keys = lattice_index(self.problem, mat)
        unknown = np.flatnonzero(np.isnan(self.table[keys]))
        if unknown.size:
            new, first = np.unique(keys[unknown], return_index=True)
            self.table[new] = self.problem.evaluate_objective_batch(mat[unknown[first]])
            self.rows += new.size
        return self.table[keys]

    def step_down(self, mat: np.ndarray, lower: np.ndarray) -> np.ndarray:
        self.step_down_rows += mat.size
        return self.problem.objective_step_down(mat, lower)

    def repair(self, problem: AllocationProblem, mat: np.ndarray) -> np.ndarray:
        """greedy_repair_batch(problem, mat), looked up at call time, on
        only the rows not repaired before in this search, in key order;
        problem is the engine's copy, whose objective is this memo."""
        keys = lattice_index(problem, mat)
        unknown = np.flatnonzero(self.repaired[keys] < 0)
        if unknown.size:
            new, first = np.unique(keys[unknown], return_index=True)
            fixed = greedy_repair_batch(problem, mat[unknown[first]])
            self.repaired[new] = lattice_index(problem, fixed)
        return lattice_rows(problem, self.repaired[keys])


def _run_restarts(problem: AllocationProblem, config: SwarmConfig, repair: bool) -> RunResult:
    """Run restarts seed .. seed + restarts - 1 one after another, each
    with a fresh generator, and report the earliest restart with the
    strictly smallest cost; repair selects the repair swarm, which
    forces each moved swarm under the budget before valuing it."""
    objective = _Objective(problem, config)
    memo = objective.table is not None
    use_hook = problem.objective_step_down is not None and not memo
    searched = replace(
        problem,
        objective_batch=objective,
        objective_step_down=objective.step_down if use_hook else None,
    )
    if repair:
        fix = objective.repair if memo else greedy_repair_batch
        costs = searched.evaluate_objective_batch
    else:
        costs = partial(penalized_fitness_batch, searched, penalty_weight=config.penalty_weight)
    lo, hi = problem.allowed_values[0], problem.allowed_values[-1]
    draw_shape = (config.n_pop, problem.dimension)
    best: Optional[tuple] = None
    for seed in range(config.seed, config.seed + config.restarts):
        rng = np.random.default_rng([_SEED_DOMAIN, seed])
        pos, vel = init_swarm(searched, config.n_pop, rng)
        p_best, p_cost = pos.copy(), costs(pos).copy()
        i = int(np.argmin(p_cost))
        g_best, g_cost = p_best[i].copy(), float(p_cost[i])
        trace = np.empty(config.i_iter + 1)
        trace[0] = g_cost
        for it in range(1, config.i_iter + 1):
            w, c1, c2 = schedule_hyperparams(it, config.i_iter)
            r1 = rng.random(draw_shape)
            r2 = rng.random(draw_shape)
            pos, vel = step_swarm(pos, vel, p_best, g_best, w, c1, c2, r1, r2, lo, hi)
            if repair:
                pos = fix(searched, pos)
            cost = costs(pos)
            improved = cost < p_cost
            p_best[improved] = pos[improved]
            p_cost[improved] = cost[improved]
            i = int(np.argmin(p_cost))
            if p_cost[i] < g_cost:
                g_best, g_cost = p_best[i].copy(), float(p_cost[i])
            trace[it] = g_cost
        if best is None or g_cost < best[1]:
            best = (g_best, g_cost, trace, seed)
    assert best is not None  # restarts >= 1
    return RunResult(*best, objective_rows=objective.rows, step_down_rows=objective.step_down_rows)


def run_ppso(problem: AllocationProblem, config: SwarmConfig = SwarmConfig()) -> RunResult:
    """Penalized swarm search. The winning best is checked once against
    the budget: over it, which only a penalty_weight too weak for the
    objective's scale allows, raises InfeasibleBudgetError."""
    result = _run_restarts(problem, config, repair=False)
    cons = problem.evaluate_consumption(result.best)
    if cons > problem.budget:
        raise InfeasibleBudgetError(
            f"allocation {result.best.tolist()} consumes {cons}, over the budget of "
            f"{problem.budget}: penalty_weight {config.penalty_weight} is too weak"
        )
    return result


def run_gcpso(problem: AllocationProblem, config: SwarmConfig = SwarmConfig()) -> RunResult:
    """Repair swarm search. Every evaluated particle is feasible, so the
    returned best always satisfies the budget."""
    return _run_restarts(problem, config, repair=True)
