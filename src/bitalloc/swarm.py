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
which the problem contract makes allowed and feasible, so both swarms
value it by F alone. That first batch always provides the incumbent,
even when all of it is +inf, so the best is never worse than the
uniform baseline and the repair swarm's best is always feasible.

Everything is vectorized over the population and works on bit values:
the allowed values are one range lo..hi, so moves clip into it and a
step down is b - 1 wherever b > lo. The swarm's own state is float64
holding integers exactly; problems and the repair get int64 rows. The
best-reduction runs in particle-index order, so results do not depend
on evaluation scheduling. Runs are deterministic for a given seed.

A search (all its restarts) is one _Search, which runs the engine on its
own copy of the problem, so every objective evaluation (the uniform
start, the penalized fitness, the repairs and their step-down
candidates) goes through it and is counted (RunResult.objective_rows).
When the allowed lattice is no larger than the rows one restart
evaluates, len(allowed) ** N <= n_pop * (i_iter + 1), rows must repeat,
so it also memoizes. One radix key, (b - lo) @ radix, serves every row
the memo sees: the engine builds each inside lo..hi, where the key is
exactly problem.lattice_index. Only rows whose key it has not seen reach
the problem, one per distinct key, in key order. An unseen key's value
reads NaN: the contract forbids NaN values and the problem's batch
evaluator rejects one before the memo stores it, so NaN never stands for
a real value. The objective is pure by contract, so memoizing changes no
value beyond pinning one per row for the whole search (a batch objective
may otherwise differ in the last bits between batches). The repair swarm
then also repairs each distinct row once per search: the memo maps a key
to its repaired row and that row's cost, and an iteration repairs and
values only the keys it has not repaired before. With every value
pinned, the greedy repair is a pure function of the row, and each
step-down candidate of a row repaired before is already known, so
repairing only the new rows sends the objective the same new rows, in
the same order, as repairing all of them: no value and no answer moves.
Larger spaces bypass both memos.

The repair takes its step-down values from the problem's
evaluate_step_down_batch. When the problem supplies objective_step_down
and the memo does not engage, the copy keeps the hook, and
RunResult.step_down_rows counts the candidates it valued. When the
memo engages, the copy drops the hook, so the candidates go through the
memo like every other row: on a lattice that small they are mostly
known already, and a table lookup costs less than the hook. Hook values
are not memoized; they only rank candidates within one row, and every
cost the swarm compares or reports (the particle costs, best_cost, the
trace) comes from the full objective.

A memoized restart also stops at the swarm's fixed point, every particle
at p_best = g_best with no move left (Poli 2009, IEEE TEC 13(4); Clerc &
Kennedy 2002, IEEE TEC 6(1)): once an iteration leaves every position
and personal best at g_best and every velocity rounding half away from
zero to 0, it fills the rest of its trace with g_cost. That iteration
moved no particle, so it settled g_best itself and the memos hold its
repair and value. Every later pull (bests - pos) * r is then exactly 0,
so each velocity only shrinks by w < 1 and, rounding being monotone,
never moves a particle; every later settle sees g_best alone, at the
pinned cost every p_cost already holds, so nothing improves and no row
reaches the repair or the objective. The generator is dropped with the
restart, so skipping its draws changes nothing. Without the memo a row's
value may move in the last bits with its batch, and objective_rows
counts every iteration, so such a search runs them all.

step_swarm and greedy_repair_batch are module globals that the engine
looks up at every call, so a tracer may swap them for timed wrappers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    penalized_fitness_batch,
    require_int,
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
        for name, least in (("n_pop", 1), ("i_iter", 1), ("restarts", 1), ("seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, least))
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


def greedy_repair_batch(problem: AllocationProblem, mat: np.ndarray) -> np.ndarray:
    """Force every row of an allocation matrix under the budget.

    The rows must be whole numbers (problem.check_batch). Per row: clip
    into the allowed range; if over budget, rescale by budget / C(b),
    round half away from zero and clip again; then repeatedly step down
    by one bit the coordinate above the floor whose step increases the
    objective least (lowest index on ties, +inf included) until the row
    is feasible. Rows that were feasible to begin with pass through
    untouched. Consumption must be nondecreasing in every coordinate, as
    in all applications here, so the all-minimum row costs no more than
    the uniform start; reaching it over budget is a ContractViolation.
    Each greedy pass works on the rows still over budget, in row order.
    """
    lo, hi = problem.allowed_values[0], problem.allowed_values[-1]
    mat = np.clip(problem.check_batch(mat), lo, hi).astype(np.int64)
    cons = problem.evaluate_consumption_batch(mat)
    idx = np.flatnonzero(cons > problem.budget)
    scale = problem.budget / cons[idx]
    rows = np.clip(round_half_away(mat[idx] * scale[:, None]), lo, hi).astype(np.int64)
    while idx.size:
        mat[idx] = rows
        still = problem.evaluate_consumption_batch(rows) > problem.budget
        if not still.any():
            break
        idx, rows = idx[still], rows[still]
        floor = rows == lo
        values = problem.evaluate_step_down_batch(rows)
        values[floor] = np.inf
        at = np.arange(idx.size)
        j = np.argmin(values, axis=1)  # lowest index wins ties
        stuck = floor[at, j]  # every candidate above the floor is +inf, as on an all-floor row
        if stuck.any():
            if floor[stuck].all(axis=1).any():
                raise ContractViolation(
                    "budget repair ran out of bits to remove: the all-minimum allocation "
                    f"exceeds the budget of {problem.budget}, so consumption is not "
                    "nondecreasing in every coordinate"
                )
            j[stuck] = np.argmin(floor[stuck], axis=1)
        rows[at, j] -= 1
    return mat


# -- the engine --------------------------------------------------------------


def step_swarm(
    pos: np.ndarray, vel: np.ndarray, bests: np.ndarray, r: np.ndarray, w: float, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous position/velocity update for the whole swarm.

    bests stacks p_best over g_best broadcast; r holds their acceleration
    factors times c1 and c2. The velocity is clamped to [-V_MAX, V_MAX]
    before the move, which rounds half away from zero; the float64
    positions are then clipped into lo..hi. No argument is modified.
    """
    pull = bests - pos
    pull *= r
    new_vel = vel * w
    new_vel += pull[0]
    new_vel += pull[1]
    np.minimum(np.maximum(new_vel, -V_MAX, out=new_vel), V_MAX, out=new_vel)
    new_pos = round_half_away(new_vel)
    new_pos += pos
    return np.minimum(np.maximum(new_pos, lo, out=new_pos), hi, out=new_pos), new_vel


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
    pos = np.full((n_pop, problem.dimension), float(problem.budget_bits))
    vel = rng.uniform(-V_MAX, V_MAX, size=(n_pop, problem.dimension))
    rng.integers(0, len(problem.allowed_values), size=problem.dimension)
    return pos, vel


def _memo_engages(problem: AllocationProblem, config: SwarmConfig) -> bool:
    """Whether the allowed lattice is no larger than the rows one restart
    evaluates, so that rows must repeat and a memo pays."""
    return len(problem.allowed_values) ** problem.dimension <= config.n_pop * (config.i_iter + 1)


class _Search:
    """One search, all its restarts. problem is the engine's copy of the
    given problem: its objective, _objective, counts the rows sent to the
    given one and, when _memo_engages, fills the module docstring's memos,
    dense over the lattice (at most n_pop * (i_iter + 1) keys): table,
    each key's value; for the repair swarm only, repaired_rows and
    repaired_cost, its repair and that repair's value; NaN until known.
    The copy keeps the given step-down hook, counted, only when the memo
    is off. settle is repair_and_value for the repair swarm, penalized
    otherwise."""

    def __init__(self, problem: AllocationProblem, config: SwarmConfig, repair: bool):
        self.given, self.penalty_weight = problem, config.penalty_weight
        self.rows = self.step_down_rows = 0
        self.memo = _memo_engages(problem, config)
        keep_hook = problem.objective_step_down is not None and not self.memo
        hook = self._step_down if keep_hook else None
        self.problem = replace(problem, objective_batch=self._objective, objective_step_down=hook)
        self.settle = self.repair_and_value if repair else self.penalized
        if self.memo:
            base, n = len(problem.allowed_values), problem.dimension
            self.table = np.full(base**n, np.nan)
            self.radix = (base ** np.arange(n - 1, -1, -1)).astype(float)
            if repair:
                self.repaired_cost = np.full(self.table.size, np.nan)
                self.repaired_rows = np.empty((self.table.size, n))

    def _keys(self, mat: np.ndarray) -> np.ndarray:
        """Each row's lattice_index as (mat - lo) @ radix, exact because the
        engine builds every row the memo sees inside lo..hi, where each
        term and partial sum is an integer below the table size."""
        return ((mat - self.given.allowed_values[0]) @ self.radix).astype(np.intp)

    def _objective(self, mat: np.ndarray) -> np.ndarray:
        """F of mat's rows; with the memo, the unknown keys go to the given
        problem once each, in key order."""
        if not self.memo:
            self.rows += mat.shape[0]
            return self.given.objective_batch(mat)
        keys = self._keys(mat)
        values = self.table[keys]
        missing = np.isnan(values)
        if missing.any():
            unknown = np.flatnonzero(missing)
            new, first = np.unique(keys[unknown], return_index=True)
            self.table[new] = self.given.evaluate_objective_batch(mat[unknown[first]])
            self.rows += new.size
            values = self.table[keys]
        return values

    def _step_down(self, mat: np.ndarray) -> np.ndarray:
        self.step_down_rows += mat.size
        return self.given.objective_step_down(mat)

    def penalized(self, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pos, its rows' penalized fitness), the penalized swarm's settle."""
        return pos, penalized_fitness_batch(self.problem, pos.astype(np.int64), self.penalty_weight)

    def repair_and_value(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(greedy_repair_batch(problem, mat) as float64, F of its rows), the
        repair swarm's settle. With the memo, the repair, looked up at call
        time, gets only the rows not repaired before in this search, in
        key order, and their repairs are valued right after it."""
        if not self.memo:
            rows = greedy_repair_batch(self.problem, mat.astype(np.int64))
            return rows.astype(float), self.problem.evaluate_objective_batch(rows)
        keys = self._keys(mat)
        cost = self.repaired_cost[keys]
        missing = np.isnan(cost)
        if missing.any():
            unknown = np.flatnonzero(missing)
            new, first = np.unique(keys[unknown], return_index=True)
            fixed = greedy_repair_batch(self.problem, mat[unknown[first]].astype(np.int64))
            self.repaired_rows[new] = fixed
            self.repaired_cost[new] = self._objective(fixed)
            cost = self.repaired_cost[keys]
        return self.repaired_rows.take(keys, axis=0), cost


def _run_restarts(problem: AllocationProblem, config: SwarmConfig, repair: bool) -> RunResult:
    """Run restarts seed .. seed + restarts - 1 one after another, each
    with a fresh generator, and report the earliest restart with the
    strictly smallest cost; repair selects the repair swarm, which
    forces each moved swarm under the budget before valuing it."""
    search = _Search(problem, config, repair)
    lo, hi = problem.allowed_values[0], problem.allowed_values[-1]
    schedule = [schedule_hyperparams(it, config.i_iter) for it in range(1, config.i_iter + 1)]
    restarts = []
    for seed in range(config.seed, config.seed + config.restarts):
        rng = np.random.default_rng([_SEED_DOMAIN, seed])
        pos, vel = init_swarm(problem, config.n_pop, rng)
        bests = np.stack([pos, pos])  # p_best over g_best broadcast, all uniform
        p_best = bests[0]
        p_cost = search.problem.evaluate_objective_batch(pos.astype(np.int64)).copy()  # by F alone
        g_cost = float(p_cost[p_cost.argmin()])
        trace = np.full(config.i_iter + 1, g_cost)
        for it, (w, c1, c2) in enumerate(schedule, start=1):
            r = rng.random(bests.shape)  # the stream of two (n_pop, N) draws
            r[0] *= c1
            r[1] *= c2
            pos, vel = step_swarm(pos, vel, bests, r, w, lo, hi)
            pos, cost = search.settle(pos)
            improved = cost < p_cost
            # A full-shape mask copies faster than one broadcast along rows.
            np.copyto(p_best, pos, where=improved.repeat(problem.dimension).reshape(pos.shape))
            np.copyto(p_cost, cost, where=improved)
            i = p_cost.argmin()
            if p_cost[i] < g_cost:
                bests[1], g_cost = p_best[i], float(p_cost[i])
            trace[it] = g_cost
            if search.memo and (bests == pos).all() and (round_half_away(vel) == 0).all():
                trace[it + 1 :] = g_cost  # the swarm's fixed point: see the module docstring
                break
        restarts.append((bests[1, 0].astype(np.int64), g_cost, trace, seed))
    search.problem = search.settle = None  # both refer back to search: free its memos now
    best = min(restarts, key=lambda restart: restart[1])  # the earliest of equal costs
    return RunResult(*best, objective_rows=search.rows, step_down_rows=search.step_down_rows)


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
