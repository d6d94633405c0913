"""Swarm engine: schedules, stepping, greedy repair and full runs."""

import hashlib
import math
import re
import sys
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bitalloc import swarm
from bitalloc.fir import benchmark_spec, fir_problem, load_coefficients
from bitalloc.problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    brute_force_optimum,
    lattice_index,
    penalized_fitness_batch,
)
from bitalloc.qgd import gaussian_least_squares, qgd_problem
from bitalloc.quantizers import round_half_away
from bitalloc.receiver import SystemConfig, receiver_problem
from bitalloc.swarm import (
    V_MAX,
    SwarmConfig,
    greedy_repair_batch,
    init_swarm,
    run_gcpso,
    run_ppso,
    schedule_hyperparams,
    step_swarm,
)

from conftest import (
    FIXTURE_DIR,
    toy_fir_problem,
    toy_qgd_problem,
    toy_receiver_problem,
    weighted_msqe_problem,
)


class TestSwarmConfig:
    def test_defaults_are_valid(self):
        cfg = SwarmConfig()
        assert cfg.n_pop == 550 and cfg.i_iter == 100 and cfg.restarts == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_pop": 0},
            {"i_iter": 0},
            {"restarts": 0},
            {"n_pop": -5},
            {"i_iter": -1},
            {"restarts": -3},
            {"penalty_weight": -1.0},
            {"penalty_weight": float("nan")},
            {"penalty_weight": 0.0},
            {"penalty_weight": float("inf")},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            SwarmConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", -1),
            ("seed", 1.5),
            ("n_pop", 2.5),
            ("i_iter", 2.5),
            ("restarts", 1.5),
            ("n_pop", True),
            ("restarts", np.True_),
            ("i_iter", "3"),
        ],
    )
    def test_sizes_and_seeds_must_be_integers_named_when_not(self, field, value):
        # Each used to pass the config and crash the run inside numpy.
        rule = "must be >= 0" if value == -1 else "must be an integer"
        with pytest.raises(ContractViolation, match=f"^{re.escape(f'{field} {rule}, got {value!r}')}$"):
            SwarmConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = SwarmConfig(
            n_pop=np.int64(3), i_iter=np.int32(2), restarts=np.uint8(1), seed=np.int64(4)
        )
        assert run_gcpso(weighted_msqe_problem([1.0, 2.0]), cfg).seed == 4


class TestSchedule:
    def test_final_iteration_hits_extremes(self):
        w, c1, c2 = schedule_hyperparams(100, 100)
        assert w == pytest.approx(0.4)
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(2.5)

    def test_midpoint(self):
        w, c1, c2 = schedule_hyperparams(50, 100)
        assert w == pytest.approx(0.65)
        assert c1 == pytest.approx(1.5)
        assert c2 == pytest.approx(1.5)

    def test_one_based_indexing_enforced(self):
        with pytest.raises(ContractViolation):
            schedule_hyperparams(0, 100)
        with pytest.raises(ContractViolation):
            schedule_hyperparams(101, 100)


def clip_step_swarm(pos, vel, p_best, g_best, w, c1, c2, r1, r2, lo, hi):
    """step_swarm as it was, with np.clip; the reference for its rewrite."""
    vel = w * vel + c1 * r1 * (p_best - pos) + c2 * r2 * (g_best[None, :] - pos)
    np.clip(vel, -V_MAX, V_MAX, out=vel)
    return np.clip(pos + round_half_away(vel).astype(np.int64), lo, hi), vel


def stacked(pos, vel, p_best, g_best, w, c1, c2, r1, r2):
    """The old step_swarm arguments as the engine passes them now:
    float64 positions, bests stacked over g_best broadcast, and one r
    scaled by (c1, c2)."""
    pos = np.asarray(pos, dtype=float)
    bests = np.stack([p_best, np.broadcast_to(g_best, pos.shape)]).astype(float)
    r = np.stack([r1, r2]) * np.array([c1, c2])[:, None, None]
    return pos, vel, bests, r, w


def assert_integral_float64(pos):
    assert pos.dtype == np.float64 and (pos == np.trunc(pos)).all()


# Velocities at the rounding ties and at the clamp, and just past them.
_EDGE_VELOCITIES = [-V_MAX, -0.5, 0.5, V_MAX, -V_MAX - 0.5, V_MAX + 0.5, -2.5, 1.5, 0.0, -0.0]


@st.composite
def step_cases(draw):
    """step_swarm arguments on a range lo..hi. With w = 1 and zero
    acceleration factors the new velocity is the old one exactly, so the
    edge velocities reach the clamp and the rounding as they are."""
    n_pop, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    lo = draw(st.integers(-2, 3))
    hi = lo + draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = rng.integers(lo, hi + 1, size=(n_pop, n))
    p_best = rng.integers(lo, hi + 1, size=(n_pop, n))
    g_best = rng.integers(lo, hi + 1, size=n)
    vel = rng.uniform(-2 * V_MAX, 2 * V_MAX, size=(n_pop, n))
    edges = rng.random((n_pop, n)) < 0.5
    vel[edges] = rng.choice(_EDGE_VELOCITIES, size=int(edges.sum()))
    exact = draw(st.booleans())
    w = 1.0 if exact else draw(st.floats(0.0, 1.0))
    c1, c2 = draw(st.floats(0.0, 3.0)), draw(st.floats(0.0, 3.0))
    r1, r2 = (np.zeros((n_pop, n)) if exact else rng.random((n_pop, n)) for _ in "12")
    return (pos, vel, p_best, g_best, w, c1, c2, r1, r2), lo, hi


class TestStepSwarm:
    def test_converged_swarm_is_a_fixed_point(self):
        pos = np.array([[3, 4], [3, 4]])
        vel = np.zeros((2, 2))
        new_pos, new_vel = step_swarm(
            *stacked(pos, vel, pos.copy(), pos[0], 0.8, 1.2, 1.7,
                     np.full((2, 2), 0.5), np.full((2, 2), 0.5)), 1, 7,
        )
        np.testing.assert_array_equal(new_pos, pos)
        assert_integral_float64(new_pos)
        np.testing.assert_array_equal(new_vel, 0.0)

    def test_position_move_rounds_half_away_from_zero(self):
        # With matching bests the attraction terms vanish and w = 1
        # keeps the velocity, so the move is round(vel) exactly.
        pos = np.array([[2, 2]])
        vel = np.array([[2.6, 2.5]])
        new_pos, new_vel = step_swarm(
            *stacked(pos, vel, pos.copy(), pos[0], 1.0, 1.0, 1.0,
                     np.zeros((1, 2)), np.zeros((1, 2))), 1, 7,
        )
        np.testing.assert_array_equal(new_pos, [[5, 5]])
        assert_integral_float64(new_pos)
        np.testing.assert_allclose(new_vel, vel)

    def test_velocity_clamped_before_move(self):
        pos = np.array([[2, 4]])
        vel = np.array([[10.0, -10.0]])
        new_pos, new_vel = step_swarm(
            *stacked(pos, vel, pos.copy(), pos[0], 1.0, 1.0, 1.0,
                     np.zeros((1, 2)), np.zeros((1, 2))), 1, 7,
        )
        np.testing.assert_allclose(new_vel, [[3.0, -3.0]])
        np.testing.assert_array_equal(new_pos, [[5, 1]])
        assert_integral_float64(new_pos)

    def test_positions_stay_in_allowed_set(self):
        rng = np.random.default_rng(11)
        pos = rng.integers(3, 7, size=(8, 4))
        vel = rng.uniform(-3, 3, size=(8, 4))
        p_best = rng.integers(3, 7, size=(8, 4))
        g_best = rng.integers(3, 7, size=4)
        args = stacked(
            pos, vel, p_best, g_best, 0.9, 2.0, 2.0, rng.random((8, 4)), rng.random((8, 4))
        )
        new_pos, _ = step_swarm(*args, 3, 6)
        assert ((new_pos >= 3) & (new_pos <= 6)).all()
        assert_integral_float64(new_pos)
        # Unclipped, the same move leaves the range 3..6 on both sides.
        free, _ = step_swarm(*args, -100, 100)
        assert free.min() < 3 and free.max() > 6
        np.testing.assert_array_equal(new_pos, np.clip(free, 3, 6))

    @settings(max_examples=200, deadline=None)
    @given(step_cases())
    def test_equals_the_clip_formula_byte_for_byte(self, case):
        args, lo, hi = case
        new_args = stacked(*args)
        kept = [np.copy(a) for a in new_args]
        new_pos, new_vel = step_swarm(*new_args, lo, hi)
        old_pos, old_vel = clip_step_swarm(*args, lo, hi)
        assert new_vel.dtype == old_vel.dtype
        assert new_vel.tobytes() == old_vel.tobytes()
        # The same integers, held exactly in float64.
        assert_integral_float64(new_pos)
        np.testing.assert_array_equal(new_pos, old_pos)
        # The arrays given are not modified.
        assert all(np.asarray(a).tobytes() == k.tobytes() for a, k in zip(new_args, kept))

    def test_one_draw_of_two_is_the_stream_of_two_draws(self):
        # The engine draws r1 and r2 as one (2, n_pop, N) array.
        for seed in range(5):
            for shape in ((550, 5), (7, 3), (1, 1)):
                one, two = (np.random.default_rng([swarm._SEED_DOMAIN, seed]) for _ in "ab")
                for _ in range(3):
                    r1, r2 = one.random((2, *shape))
                    assert r1.tobytes() == two.random(shape).tobytes()
                    assert r2.tobytes() == two.random(shape).tobytes()


class TestInitSwarm:
    def test_all_particles_start_uniform(self):
        p = weighted_msqe_problem([1.0, 1.0, 1.0], budget=9.0)
        pos, vel = init_swarm(p, 12, np.random.default_rng(0))
        np.testing.assert_array_equal(pos, np.full((12, 3), 3))
        assert vel.shape == (12, 3)
        assert (vel >= -V_MAX).all() and (vel <= V_MAX).all()

    def test_seed_changes_velocities_not_positions(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=6.0)
        pos_a, vel_a = init_swarm(p, 6, np.random.default_rng(1))
        pos_b, vel_b = init_swarm(p, 6, np.random.default_rng(2))
        np.testing.assert_array_equal(pos_a, pos_b)
        assert not np.array_equal(vel_a, vel_b)

    @given(
        st.integers(1, 4),
        st.integers(0, 3),
        st.integers(0, 5),
        st.sampled_from([0.0, 0.5, 3.0]),
        st.data(),
    )
    def test_uniform_start_passes_repair_without_objective_calls(self, n, lo, width, slack, data):
        # Why the repair swarm values its start unrepaired: whatever
        # in-range budget_bits the contract admits, the start is feasible.
        allowed = tuple(range(lo, lo + width + 1))
        budget_bits = data.draw(st.sampled_from(allowed))
        weights = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
        p = weighted_msqe_problem(weights, allowed, n * budget_bits + slack, budget_bits)
        calls = []

        def objective(mat):
            calls.append(len(mat))
            return p.objective_batch(mat)

        counted = replace(p, objective_batch=objective)
        pos, _ = init_swarm(counted, 5, np.random.default_rng(0))
        np.testing.assert_array_equal(greedy_repair_batch(counted, pos), pos)
        assert calls == []

    def test_budget_average_outside_set_rejected(self):
        # Below and above 3..5: no swarm can start from either.
        for budget_bits in (1, 9):
            with pytest.raises(ContractViolation, match=f"budget_bits {budget_bits} is not in"):
                weighted_msqe_problem(
                    [1.0, 1.0], allowed=(3, 4, 5), budget=10.0, budget_bits=budget_bits
                )


def sensitivities(problem, b):
    """F of b with each coordinate one bit lower, less F(b); +inf at the floor."""
    b = np.asarray(b)
    values = problem.evaluate_step_down_batch(b[None, :])[0] - problem.evaluate_objective(b)
    values[b == problem.allowed_values[0]] = np.inf
    return values


class TestSensitivity:
    def test_closed_form_on_weighted_msqe(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        vec = sensitivities(p, [3, 3])
        # Dropping one bit quadruples that term: delta = 3 w_j 2^(-2 b_j).
        assert vec[0] == pytest.approx(3 * 2.0 * 2.0**-6)
        assert vec[1] == pytest.approx(3 * 0.5 * 2.0**-6)

    def test_vector_form_marks_floor_infinite(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        vec = sensitivities(p, [1, 3])
        assert vec[0] == np.inf
        assert vec[1] == pytest.approx(3 * 0.5 * 2.0**-6)


@st.composite
def step_down_cases(draw):
    """A weighted-MSQE toy on a range with floor 1 or 3, a row in that
    range, and a budget exactly one unit below the row's consumption, or
    at it for an all-floor row: the uniform start must meet the budget,
    and none meets a lower one. budget_bits is any value whose uniform
    start does."""
    allowed = draw(st.sampled_from([tuple(range(1, 8)), tuple(range(3, 8))]))
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    b = np.array(draw(st.lists(st.sampled_from(allowed), min_size=n, max_size=n)))
    budget = max(b.sum() - 1.0, n * allowed[0])
    budget_bits = draw(st.integers(allowed[0], int(budget) // n))
    p = weighted_msqe_problem(weights, allowed, budget=budget, budget_bits=budget_bits)
    return p, b


class TestSharedStepDown:
    @given(step_down_cases())
    def test_vector_and_single_sensitivity_agree(self, case):
        p, b = case
        vec = sensitivities(p, b)
        for j in range(p.dimension):
            if b[j] > p.allowed_values[0]:
                stepped = b.copy()
                stepped[j] -= 1
                assert vec[j] == p.evaluate_objective(stepped) - p.evaluate_objective(b)
            else:
                assert vec[j] == np.inf

    @given(step_down_cases())
    def test_one_unit_over_loses_least_sensitive_bit(self, case):
        p, b = case
        assume((b > p.allowed_values[0]).any())
        # Rescaling by (C - 1) / C rounds every b_j back to itself when
        # no coordinate holds more than half of C, so only the greedy
        # decrement acts.
        assume(2 * b.max() <= b.sum())
        j = int(np.argmin(sensitivities(p, b)))  # lowest index on ties
        expected = b.copy()
        expected[j] -= 1
        np.testing.assert_array_equal(greedy_repair_batch(p, b[None, :]), [expected])


def previous_greedy_repair(problem, mat):
    """greedy_repair_batch as it was, re-indexing mat with the over mask
    on every pass; the reference for its working-set loop."""
    lo, hi = problem.allowed_values[0], problem.allowed_values[-1]
    mat = np.clip(mat, lo, hi).astype(np.int64)
    cons = problem.evaluate_consumption_batch(mat)
    over = cons > problem.budget
    if over.any():
        scale = problem.budget / cons[over]
        mat[over] = np.clip(round_half_away(mat[over] * scale[:, None]), lo, hi)
        cons[over] = problem.evaluate_consumption_batch(mat[over])
        over = cons > problem.budget
    while over.any():
        rows = mat[over]
        assert not (rows == lo).all(axis=1).any()
        values = problem.evaluate_step_down_batch(rows)
        values[rows == lo] = np.inf
        j = np.argmin(values, axis=1)
        rows[np.arange(rows.shape[0]), j] -= 1
        mat[over] = rows
        cons[over] = problem.evaluate_consumption_batch(rows)
        over = cons > problem.budget
    return mat


def recording(problem, log):
    """problem with every batch its callables get appended to log as
    (callable name, copy of the batch)."""

    def record(name, fn):
        def recorded(mat):
            log.append((name, np.array(mat)))
            return fn(mat)

        return recorded

    hook = problem.objective_step_down
    copy = replace(
        problem,
        objective_batch=record("objective", problem.objective_batch),
        consumption_batch=record("consumption", problem.consumption_batch),
        objective_step_down=None if hook is None else record("step_down", hook),
    )
    log.clear()  # the uniform check of the copy's construction
    return copy


@st.composite
def repair_cases(draw):
    """A problem with or without a step-down hook and a batch of rows
    that reaches past both ends of its range, so rows get clipped,
    rescaled and stepped down."""
    i = draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["msqe", "fir", "qgd"]))
    if kind == "msqe":
        n = draw(st.integers(1, 5))
        weights = draw(st.lists(st.sampled_from([0.25, 1.0, 4.0]), min_size=n, max_size=n))
        p = weighted_msqe_problem(weights, budget=n * 3 + draw(st.sampled_from([0.0, 0.5, 2.0])))
    else:
        p = (toy_fir_problem if kind == "fir" else toy_qgd_problem)(i)
    lo, hi = p.allowed_values[0], p.allowed_values[-1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return p, rng.integers(lo - 1, hi + 2, size=(draw(st.integers(1, 30)), p.dimension))


class TestGreedyRepair:
    def test_feasible_rows_untouched(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=8.0, budget_bits=4)
        np.testing.assert_array_equal(greedy_repair_batch(p, [[4, 3]]), [[4, 3]])

    def test_rescale_reaches_feasibility_alone(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=8.0, budget_bits=4)
        np.testing.assert_array_equal(greedy_repair_batch(p, [[6, 6], [5, 4]]), [[4, 4], [4, 4]])

    def test_decrement_removes_least_sensitive_bit(self):
        # After rescaling, (3, 3) rounds back to itself and stays one
        # unit over, so one greedy decrement must fire; the lighter
        # second coordinate loses its bit.
        p = weighted_msqe_problem([4.0, 1.0], budget=5.0, budget_bits=2)
        np.testing.assert_array_equal(greedy_repair_batch(p, [[3, 3]]), [[3, 2]])

    def test_tie_decrements_lowest_index(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=5.0, budget_bits=2)
        np.testing.assert_array_equal(greedy_repair_batch(p, [[3, 3]]), [[2, 3]])

    def test_idempotent(self):
        p = weighted_msqe_problem([4.0, 1.0, 2.0], budget=7.0, budget_bits=2)
        once = greedy_repair_batch(p, [[7, 7, 7]])
        np.testing.assert_array_equal(greedy_repair_batch(p, once), once)

    def test_batch_matches_single_rows(self):
        p = weighted_msqe_problem([4.0, 1.0, 2.0], budget=9.0)
        rng = np.random.default_rng(7)
        mat = rng.integers(1, 8, size=(12, 3))
        batch = greedy_repair_batch(p, mat)
        for row_in, row_out in zip(mat, batch):
            np.testing.assert_array_equal(greedy_repair_batch(p, row_in[None, :]), [row_out])
        assert (p.evaluate_consumption_batch(batch) <= p.budget).all()

    @staticmethod
    def decreasing_problem():
        """C(b) = b_0 - 3 b_1 + 6 on 1..2, falling in b_1: the uniform
        [2, 2] costs 2 and meets the budget of 3, but the all-minimum
        [1, 1] costs 4, so a repair that reaches it is stuck."""
        p = weighted_msqe_problem([1.0, 1.0], allowed=(1, 2), budget_bits=2)
        return replace(p, budget=3.0, consumption_batch=lambda mat: mat @ [1.0, -3.0] + 6.0)

    def test_unreachable_budget_raises(self):
        # [2, 1] costs 5; rescaling rounds it to [1, 1], still over.
        with pytest.raises(ContractViolation, match="not nondecreasing in every coordinate"):
            greedy_repair_batch(self.decreasing_problem(), [[2, 1]])

    def test_stuck_row_detected_inside_mixed_batch(self):
        # [1, 2] costs 1 and is feasible; the stuck [2, 1] still raises.
        with pytest.raises(ContractViolation, match="not nondecreasing in every coordinate"):
            greedy_repair_batch(self.decreasing_problem(), np.array([[1, 2], [2, 1]]))

    def test_row_that_steps_down_to_the_floor_over_budget_raises_in_the_search_too(self):
        # C = (b - 2)^2 on 0..4 with a budget of 0.5: [4] rescales to [1],
        # still over, and its one step down reaches the floor [0], which
        # costs 4; so does every moved particle of a repair swarm but [3].
        p = AllocationProblem(
            dimension=1,
            allowed_values=(0, 1, 2, 3, 4),
            budget_bits=2,
            budget=0.5,
            objective_batch=lambda mat: mat[:, 0].astype(float),
            consumption_batch=lambda mat: (mat[:, 0] - 2.0) ** 2,
        )
        with pytest.raises(ContractViolation, match="not nondecreasing in every coordinate"):
            greedy_repair_batch(p, [[4.0]])
        with pytest.raises(ContractViolation, match="not nondecreasing in every coordinate"):
            run_gcpso(p, SwarmConfig(n_pop=5, i_iter=5, restarts=1))

    @pytest.mark.parametrize("row", [[math.nan, 2, 2], [2, 2.5, 2]])
    def test_fractional_or_non_finite_rows_refused_before_the_cast(self, row):
        # [nan, 2, 2] came back as [-9223372036854775808, 2, 2], below the
        # lattice, after an invalid-value warning in the cast.
        shown = re.escape(str([float(v) for v in row]))
        with pytest.raises(ContractViolation, match=rf"row 1 is not whole numbers: {shown}"):
            greedy_repair_batch(toy_qgd_problem(0), [[2, 2, 2], row])

    @staticmethod
    def infinite_problem():
        """F = +inf everywhere, which the contract allows, and C = the
        row sum on 1..3 with a budget of 2: every step down ties at +inf."""
        return AllocationProblem(
            dimension=2,
            allowed_values=(1, 2, 3),
            budget_bits=1,
            budget=2.0,
            objective_batch=lambda mat: np.full(len(mat), math.inf),
            consumption_batch=lambda mat: mat.sum(axis=1).astype(float),
        )

    def test_all_infinite_candidates_step_down_above_the_floor(self):
        # [1, 3] rescales to [1, 2], still over. The argmin over two +inf
        # candidates picked the floor coordinate 0: [0, 2], off the lattice.
        p = self.infinite_problem()
        np.testing.assert_array_equal(greedy_repair_batch(p, [[1, 3]]), [[1, 1]])

    @settings(max_examples=60, deadline=None)
    @given(repair_cases())
    def test_hands_the_problem_the_batches_of_the_previous_loop(self, case):
        p, mat = case
        log, previous_log = [], []
        fixed = greedy_repair_batch(recording(p, log), mat)
        expected = previous_greedy_repair(recording(p, previous_log), mat)
        assert fixed.tobytes() == expected.tobytes()
        assert [name for name, _ in log] == [name for name, _ in previous_log]
        assert all(a.tobytes() == b.tobytes() for (_, a), (_, b) in zip(log, previous_log))


class TestRuns:
    TOY_WEIGHTS = (4.0, 2.0, 1.0)
    CFG = SwarmConfig(n_pop=40, i_iter=40, restarts=3, seed=2)

    def toy(self):
        return weighted_msqe_problem(self.TOY_WEIGHTS, budget=9.0)

    def test_trace_shape_and_monotonicity(self):
        for runner in (run_ppso, run_gcpso):
            result = runner(self.toy(), self.CFG)
            assert result.trace.shape == (self.CFG.i_iter + 1,)
            assert (np.diff(result.trace) <= 0).all()
            assert result.best_cost == result.trace[-1]

    def test_trace_starts_at_uniform_cost(self):
        p = self.toy()
        uniform = np.full(3, p.budget_bits)
        expected = p.evaluate_objective(uniform)
        for runner in (run_ppso, run_gcpso):
            result = runner(p, self.CFG)
            assert result.trace[0] == pytest.approx(expected)
            assert result.best_cost <= expected

    def test_both_engines_reach_exhaustive_optimum(self):
        p = self.toy()
        _, oracle_value = brute_force_optimum(p)
        for runner in (run_ppso, run_gcpso):
            result = runner(p, self.CFG)
            assert result.best_cost == pytest.approx(oracle_value, rel=1e-12)
            assert p.is_feasible(result.best)

    def test_penalized_best_cost_is_consistent(self):
        p = self.toy()
        result = run_ppso(p, self.CFG)
        assert result.best_cost == pytest.approx(
            penalized_fitness_batch(p, result.best[None, :], self.CFG.penalty_weight)[0]
        )

    def test_over_budget_penalized_best_raises(self):
        # A penalty this weak lets the penalized swarm settle at the top of
        # the range, far over the budget of 9 bits.
        cfg = replace(self.CFG, penalty_weight=1e-9)
        message = r"\[7, 7, 7\] consumes 21.0, over the budget of 9.0: penalty_weight 1e-09"
        with pytest.raises(InfeasibleBudgetError, match=message):
            run_ppso(self.toy(), cfg)

    def test_repair_best_cost_is_raw_objective(self):
        p = self.toy()
        result = run_gcpso(p, self.CFG)
        assert result.best_cost == pytest.approx(p.evaluate_objective(result.best))

    def test_same_seed_reproduces_run_exactly(self):
        p = self.toy()
        a = run_gcpso(p, self.CFG)
        b = run_gcpso(p, self.CFG)
        np.testing.assert_array_equal(a.best, b.best)
        assert a.best_cost == b.best_cost
        np.testing.assert_array_equal(a.trace, b.trace)

    def test_restarts_take_strict_best_and_record_seed(self):
        p = weighted_msqe_problem([8.0, 3.0, 1.0, 0.5], budget=10.0, budget_bits=2)
        base = SwarmConfig(n_pop=8, i_iter=12, restarts=1, seed=5)
        singles = [
            run_gcpso(p, SwarmConfig(n_pop=8, i_iter=12, restarts=1, seed=5 + r))
            for r in range(3)
        ]
        combined = run_gcpso(p, SwarmConfig(n_pop=8, i_iter=12, restarts=3, seed=5))
        costs = [s.best_cost for s in singles]
        assert combined.best_cost == min(costs)
        # First restart achieving the minimum wins.
        winner = next(s for s in singles if s.best_cost == combined.best_cost)
        assert combined.seed == winner.seed
        np.testing.assert_array_equal(combined.best, winner.best)
        assert combined.trace.tobytes() == winner.trace.tobytes()
        assert base.seed == 5

    def test_earliest_of_equal_best_restarts_wins(self):
        # Seeds 19 and 20 end at the same cost with different answers,
        # both below seed 18's; the earlier, 19, is reported whole.
        p = weighted_msqe_problem([8.0, 3.0, 1.0, 0.5], budget=10.0, budget_bits=2)
        first, tied, later = (
            run_gcpso(p, SwarmConfig(n_pop=4, i_iter=3, restarts=1, seed=s)) for s in (18, 19, 20)
        )
        assert tied.best_cost == later.best_cost < first.best_cost
        assert tied.best.tolist() != later.best.tolist()
        combined = run_gcpso(p, SwarmConfig(n_pop=4, i_iter=3, restarts=3, seed=18))
        assert combined.seed == 19
        assert combined.best_cost == tied.best_cost
        assert combined.best.tobytes() == tied.best.tobytes()
        assert combined.trace.tobytes() == tied.trace.tobytes()

    def test_nan_at_uniform_start_rejected(self):
        # Otherwise no personal best ever improves on NaN and the result
        # is init_swarm's random guess at infinite cost.
        p = weighted_msqe_problem([1.0, 1.0, 1.0], budget=9.0)
        nan_at_start = AllocationProblem(
            dimension=3,
            allowed_values=p.allowed_values,
            budget_bits=3,
            budget=9.0,
            objective_batch=lambda mat: np.where(
                (mat == 3).all(axis=1), math.nan, p.evaluate_objective_batch(mat)
            ),
            consumption_batch=p.consumption_batch,
        )
        with pytest.raises(ContractViolation, match=r"NaN for row 0, allocation \[3, 3, 3\]"):
            run_ppso(nan_at_start, self.CFG)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_all_infinite_first_batch_still_replaces_the_guess(self, seed):
        # Only strict improvements used to replace init_swarm's random
        # guess, so both engines returned it: [3, 3] at seed 1, which is
        # over budget, and [2, 1] at seed 5.
        p = weighted_msqe_problem([1.0, 1.0], allowed=(1, 2, 3), budget=4.0, budget_bits=2)
        infinite = replace(p, objective_batch=lambda mat: np.full(mat.shape[0], math.inf))
        for runner in (run_ppso, run_gcpso):
            result = runner(infinite, SwarmConfig(seed=seed, restarts=2))
            np.testing.assert_array_equal(result.best, [2, 2])
            assert result.best_cost == math.inf
            assert result.seed == seed

    def test_repair_swarm_keeps_an_all_infinite_search_on_the_lattice(self):
        # The repair stepped below the floor, so keying its row in the
        # memo raised numpy's "invalid entry in coordinates array".
        p = TestGreedyRepair.infinite_problem()
        result = run_gcpso(p, SwarmConfig(n_pop=50, i_iter=10, restarts=1))
        np.testing.assert_array_equal(result.best, [1, 1])
        assert result.best_cost == math.inf

    def test_objective_rows_drop_when_the_memo_engages(self):
        # 7 ** 3 = 343 allocations, far fewer than the 40 * 41 rows of
        # one restart, so each is evaluated at most once over all three.
        for runner in (run_ppso, run_gcpso):
            result = runner(self.toy(), self.CFG)
            assert 0 < result.objective_rows <= 7**3

    def test_objective_rows_count_every_row_without_the_memo(self):
        coeffs = load_coefficients(FIXTURE_DIR / "a35.txt")
        p = fir_problem(benchmark_spec("a", 35), coeffs, "fixed", 8)
        result = run_ppso(p, SwarmConfig(n_pop=100, restarts=1, seed=0))
        assert result.objective_rows == 100 * 101


def row_loop_problem(weights, allowed, budget_bits, slack, calls=None):
    """A nonseparable toy whose objective is a per-row Python loop, so a
    row's value cannot depend on its batch; calls, if given, collects
    the number of rows of every objective call."""
    weights = [float(w) for w in weights]

    def objective(row):
        terms = [w * 2.0 ** (-2 * int(b)) for w, b in zip(weights, row)]
        return sum(terms) + 0.25 * terms[0] * terms[-1] ** 0.5

    def objective_batch(mat):
        if calls is not None:
            calls.append(len(mat))
        return np.array([objective(row) for row in mat])

    return AllocationProblem(
        dimension=len(weights),
        allowed_values=allowed,
        budget_bits=budget_bits,
        budget=float(len(weights) * budget_bits + slack),
        objective_batch=objective_batch,
        consumption_batch=lambda mat: np.asarray(mat, dtype=float).sum(axis=1),
    )


@st.composite
def memo_cases(draw):
    """A row-loop toy on a range with floor 0, 1 or 3 and a swarm whose
    single restart evaluates at least as many rows as the set has
    allocations, so the memo engages."""
    allowed = draw(st.sampled_from([(1, 2, 3, 4), tuple(range(3, 8)), tuple(range(0, 6))]))
    n = draw(st.integers(2, 3))
    weights = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    p = row_loop_problem(
        weights, allowed, draw(st.sampled_from(allowed[1:-1])), draw(st.integers(0, 2))
    )
    i_iter = draw(st.integers(3, 8))
    n_pop = -(-len(allowed) ** n // (i_iter + 1)) + draw(st.integers(0, 4))
    cfg = SwarmConfig(
        n_pop=n_pop, i_iter=i_iter, restarts=draw(st.integers(1, 2)), seed=draw(st.integers(0, 99))
    )
    return p, cfg


@st.composite
def engine_cases(draw):
    """A row-loop toy with 2 to 4 coordinates on a range with floor 0, 1
    or 3 and a small swarm whose penalty may be too weak to keep the
    penalized answer feasible."""
    allowed = draw(st.sampled_from([(1, 2, 3, 4), tuple(range(3, 8)), tuple(range(0, 6))]))
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.floats(0.1, 4.0), min_size=n, max_size=n))
    p = row_loop_problem(
        weights, allowed, draw(st.sampled_from(allowed[1:-1])), draw(st.integers(0, 2))
    )
    cfg = SwarmConfig(
        n_pop=draw(st.integers(2, 12)),
        i_iter=draw(st.integers(1, 8)),
        restarts=draw(st.integers(1, 2)),
        seed=draw(st.integers(0, 99)),
        penalty_weight=draw(st.sampled_from([1e-3, 1e3])),
    )
    return p, cfg


class TestEnginePostConditions:
    @settings(max_examples=25, deadline=None)
    @given(engine_cases())
    def test_answers_hold_the_result_contract(self, case):
        p, cfg = case
        optimum = brute_force_optimum(p)[1]
        for runner in (run_ppso, run_gcpso):
            try:
                result = runner(p, cfg)
            except InfeasibleBudgetError as exc:
                # Only the weak penalty lets the penalized swarm end over budget.
                assert runner is run_ppso and cfg.penalty_weight < 1
                assert f"over the budget of {p.budget}" in str(exc)
                continue
            assert set(result.best.tolist()) <= set(p.allowed_values)
            assert p.is_feasible(result.best)
            assert np.all(np.diff(result.trace) <= 0)
            assert result.trace[-1] == result.best_cost
            assert result.best_cost == p.evaluate_objective(result.best)
            assert optimum <= result.best_cost


MEMO_OFF_INSTANCES = {
    # Lattices of 4^8 to 7^7 rows: more than a 100 x 101 swarm evaluates.
    "fir13-fixed": lambda: toy_fir_problem(0, n_taps=13, kind="fixed", budget_bits=3),
    "fir13-float": lambda: toy_fir_problem(1, n_taps=13, kind="float", budget_bits=3),
    "receiver-8x2x20": lambda: receiver_problem(
        SystemConfig(m_antennas=8, k_users=2, budget_bits=1, mc_channels=20, seed=2)
    ),
    "qgd-ls6": lambda: qgd_problem(
        gaussian_least_squares(n_rows=30, n_cols=6, eta=0.001, t_iter=1, budget_bits=3, seed=3),
        np.zeros(6),
    ),
}


@pytest.mark.parametrize("i, name", enumerate(MEMO_OFF_INSTANCES))
def test_memo_off_searches_reach_the_oracle_value(i, name):
    # Every real workload searches with the memo off; this pins that both
    # engines reach the optimum's value there. Values are compared, not
    # vectors: on plateaus the engines stop at other optimal vectors.
    p = MEMO_OFF_INSTANCES[name]()
    cfg = SwarmConfig(n_pop=100, restarts=3, seed=i)
    assert not swarm._memo_engages(p, cfg)
    _, optimum = brute_force_optimum(p)
    for runner in (run_ppso, run_gcpso):
        result = runner(p, cfg)
        assert p.is_feasible(result.best)
        assert abs(result.best_cost - optimum) <= 1e-9 * max(1.0, abs(optimum)), runner.__name__


def _without_memo():
    return mock.patch.object(swarm, "_memo_engages", lambda problem, config: False)


class TestObjectiveMemo:
    @settings(max_examples=25, deadline=None)
    @given(memo_cases())
    # After iteration 2 of restart 29, every particle and personal best
    # sits at g_best = [3], but two velocities still round to a move:
    # iteration 3 finds [4]. Stopping there on positions alone lost it.
    @example((row_loop_problem([0.5], (1, 2, 3, 4), 3, 1),
              SwarmConfig(n_pop=4, i_iter=4, restarts=2, seed=29)))
    def test_answers_are_bit_identical_with_and_without_the_memo(self, case):
        p, cfg = case
        assert swarm._memo_engages(p, cfg)
        for runner in (run_ppso, run_gcpso):
            memo = runner(p, cfg)
            with _without_memo():
                plain = runner(p, cfg)
            assert memo.best.tobytes() == plain.best.tobytes()
            assert memo.best_cost == plain.best_cost
            assert memo.trace.tobytes() == plain.trace.tobytes()
            assert memo.seed == plain.seed
            assert memo.objective_rows <= len(p.allowed_values) ** p.dimension
            assert memo.objective_rows <= plain.objective_rows

    @pytest.mark.parametrize("runner", [run_ppso, run_gcpso])
    def test_engage_condition_boundary(self, runner):
        # 3 ** 4 = 81 allocations: n_pop * (i_iter + 1) = 81 engages the
        # memo, 80 bypasses it and evaluates exactly the rows it did
        # without one.
        at = SwarmConfig(n_pop=9, i_iter=8, restarts=2, seed=3)
        above = SwarmConfig(n_pop=8, i_iter=9, restarts=2, seed=3)
        calls, plain_calls = [], []
        p = row_loop_problem([2.0, 1.0, 0.5, 0.25], (1, 2, 3), 2, 1, calls)
        plain_p = row_loop_problem([2.0, 1.0, 0.5, 0.25], (1, 2, 3), 2, 1, plain_calls)
        assert swarm._memo_engages(p, at) and not swarm._memo_engages(p, above)

        bypassed = runner(p, above)
        with _without_memo():
            plain = runner(plain_p, above)
        assert calls == plain_calls
        assert bypassed.objective_rows == plain.objective_rows == sum(plain_calls)
        if runner is run_ppso:
            assert plain.objective_rows == 2 * 8 * 10
        assert bypassed.trace.tobytes() == plain.trace.tobytes()

        calls.clear()
        memo = runner(p, at)
        assert memo.objective_rows == sum(calls) <= 3**4

    @pytest.mark.parametrize("make", [toy_fir_problem, toy_qgd_problem])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_toy_restarts_are_byte_identical_with_and_without_the_memos(self, make, i):
        # FIR and qgd row values do not depend on the batch, so neither
        # the objective memo nor the repair memo may move an answer.
        p, cfg = make(i), SwarmConfig(seed=i, restarts=3)
        assert swarm._memo_engages(p, cfg)
        memo = run_gcpso(p, cfg)
        with _without_memo():
            plain = run_gcpso(p, cfg)
        assert memo.best.tobytes() == plain.best.tobytes()
        assert memo.best_cost == plain.best_cost
        assert memo.trace.tobytes() == plain.trace.tobytes()
        assert memo.seed == plain.seed

    @pytest.mark.parametrize(
        "make, rows", [(toy_fir_problem, 428), (toy_receiver_problem, 257), (toy_qgd_problem, 400)]
    )
    def test_toy_objective_rows_are_pinned(self, make, rows):
        # The repair memo sends the objective exactly the rows that
        # repairing every particle did: no extra row, none skipped.
        assert run_gcpso(make(2), SwarmConfig(seed=2, restarts=1)).objective_rows == rows


def _recording_repair(calls):
    """greedy_repair_batch, recording the lattice keys of every batch it gets."""
    repair = swarm.greedy_repair_batch

    def recorder(problem, mat):
        calls.append(lattice_index(problem, mat))
        return repair(problem, mat)

    return mock.patch.object(swarm, "greedy_repair_batch", recorder)


# The engine code that asks a search for keys, and the rows each hands it.
_ASKERS = {
    "_run_restarts": "uniform start",
    "penalized": "ppso positions",
    "evaluate_step_down_batch": "hookless candidates",
    "repair_and_value": "repaired rows",
}


def _row_kind(frame):
    """The kind of row a search keys, read off the engine code that asked:
    frame is the caller of _Search._keys. repair_and_value keys the moved
    positions itself and its repairs through the search's objective."""
    if frame.f_code.co_name == "repair_and_value":
        return "gcpso positions"
    while frame.f_code.co_name not in _ASKERS:
        frame = frame.f_back
    return _ASKERS[frame.f_code.co_name]


class TestRepairMemo:
    CFG = SwarmConfig(n_pop=40, i_iter=40, restarts=3, seed=7)

    @pytest.mark.parametrize("make", [toy_fir_problem, toy_receiver_problem, toy_qgd_problem])
    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_key_space_path_gives_each_particles_repair_and_its_memo_value(self, make, i):
        p = make(i)
        search = swarm._Search(p, SwarmConfig(seed=i, restarts=1), repair=True)
        assert search.memo
        lo, hi = p.allowed_values[0], p.allowed_values[-1]
        rng = np.random.default_rng(i)
        first, fresh = rng.integers(lo, hi + 1, size=(2, 30, p.dimension))
        # The second batch repeats the first: those keys are known.
        for mat in (first, np.concatenate([first[::-1], fresh])):
            rows, costs = search.repair_and_value(mat)
            assert rows.dtype == np.float64
            rows = rows.astype(np.int64)
            for particle, row in zip(mat, rows):
                fixed = greedy_repair_batch(search.problem, particle[None, :])
                assert fixed.tobytes() == row.tobytes()
            assert costs.tobytes() == search.table[lattice_index(p, rows)].tobytes()
            assert not np.isnan(costs).any()
            assert (p.evaluate_consumption_batch(rows) <= p.budget).all()

    # Every lattice the default SwarmConfig memoizes, for base 2..9.
    @pytest.mark.parametrize(
        "base, n",
        [(b, n) for b in range(2, 10) for n in range(1, 17) if b**n <= 550 * 101],
    )
    def test_engine_key_is_the_lattice_index(self, base, n):
        # F is each row's lattice_index and every row is feasible, so the
        # repair is the identity: the memo must store each of the engine's
        # float64 rows, and its value, at that row's lattice_index.
        lo = int(np.random.default_rng(base * 100 + n).integers(-3, 4))
        allowed = tuple(range(lo, lo + base))
        p = AllocationProblem(
            dimension=n,
            allowed_values=allowed,
            budget_bits=lo,
            budget=0.0,
            objective_batch=lambda mat: lattice_index(p, mat).astype(float),
            consumption_batch=lambda mat: np.zeros(len(mat)),
        )
        search = swarm._Search(p, SwarmConfig(), repair=True)
        assert search.memo
        rng = np.random.default_rng(n)
        rows = rng.integers(lo, lo + base, size=(300, n)).astype(float)
        rows[:2] = [lo], [lo + base - 1]  # the first and the last key
        index = lattice_index(p, rows.astype(np.int64))
        repaired, costs = search.repair_and_value(rows)
        assert repaired.tobytes() == rows.tobytes()
        assert costs.tobytes() == index.astype(float).tobytes()
        assert search.repaired_cost[index].tobytes() == index.astype(float).tobytes()
        assert np.isnan(np.delete(search.repaired_cost, index)).all()

    @pytest.mark.parametrize("make", [toy_fir_problem, toy_receiver_problem, toy_qgd_problem])
    def test_every_memo_key_of_a_search_is_the_lattice_index(self, make):
        # The memo's radix key is a row's lattice_index only inside
        # lo..hi, and lattice_index refuses a row outside it, so every
        # key of toys 0-2 is checked against it, for each kind of row.
        keys, kinds = swarm._Search._keys, set()

        def checked(search, mat):
            kinds.add(_row_kind(sys._getframe(1)))
            out = keys(search, mat)
            assert (mat == np.trunc(mat)).all()
            assert out.tobytes() == lattice_index(search.given, mat.astype(np.int64)).tobytes()
            return out

        with mock.patch.object(swarm._Search, "_keys", checked):
            for i in range(3):
                p, cfg = make(i), SwarmConfig(seed=i, restarts=1)
                assert swarm._memo_engages(p, cfg)
                run_ppso(p, cfg)
                run_gcpso(p, cfg)
        assert kinds == {"gcpso positions", *_ASKERS.values()}

    def test_each_distinct_row_is_repaired_once_per_search(self):
        p = weighted_msqe_problem([4.0, 1.0, 0.25], allowed=tuple(range(1, 8)))
        assert swarm._memo_engages(p, self.CFG)
        calls = []
        with _recording_repair(calls):
            result = run_gcpso(p, self.CFG)
        assert 0 < len(calls) < self.CFG.restarts * (self.CFG.i_iter + 1)
        keys = np.concatenate(calls)
        assert np.unique(keys).size == keys.size
        assert p.is_feasible(result.best)

    def test_a_memoized_penalized_search_builds_no_repair_memo(self):
        p = weighted_msqe_problem([4.0, 1.0, 0.25], allowed=tuple(range(1, 8)))
        searches = [swarm._Search(p, self.CFG, repair) for repair in (False, True)]
        assert all(search.memo for search in searches)
        assert [hasattr(s, "repaired_rows") for s in searches] == [False, True]
        assert [hasattr(s, "repaired_cost") for s in searches] == [False, True]

    def test_without_the_memo_every_engine_batch_is_repaired(self):
        p = weighted_msqe_problem([4.0, 1.0, 0.25], allowed=tuple(range(1, 8)))
        calls = []
        with _without_memo(), _recording_repair(calls):
            run_gcpso(p, self.CFG)
        # Each iteration's moved swarm; the uniform start is feasible and
        # is valued unrepaired.
        assert len(calls) == self.CFG.restarts * self.CFG.i_iter
        assert all(keys.size == self.CFG.n_pop for keys in calls)


def _counting_steps(calls):
    """step_swarm, counting its calls in calls[0]."""
    step = swarm.step_swarm

    def counter(*args):
        calls[0] += 1
        return step(*args)

    return mock.patch.object(swarm, "step_swarm", counter)


def _searches_digest(runner, make):
    """sha256 over best, its dtype, best_cost, trace, seed, objective_rows
    and step_down_rows of toys 0-5 of a family, searched with
    SwarmConfig(seed=i, restarts=2)."""
    digest = hashlib.sha256()
    for i in range(6):
        r = runner(make(i), SwarmConfig(seed=i, restarts=2))
        for field in (r.best.tobytes(), str(r.best.dtype), float(r.best_cost).hex(),
                      r.trace.tobytes(), r.seed, r.objective_rows, r.step_down_rows):
            digest.update(repr(field).encode())
    return digest.hexdigest()


class TestFixedPointExit:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 100), st.integers(0, 2**32 - 1))
    def test_a_settled_swarm_with_sub_half_velocities_never_moves(self, start, seed):
        # Every particle at p_best = g_best with each |velocity| < 0.5:
        # whatever is drawn, no later schedule step moves a particle.
        rng = np.random.default_rng(seed)
        pos = np.tile(rng.integers(1, 8, size=3).astype(float), (4, 1))
        vel = rng.uniform(-0.4999, 0.4999, size=pos.shape)
        bests = np.stack([pos, pos])
        for it in range(start, 101):
            w, c1, c2 = schedule_hyperparams(it, 100)
            r = rng.random(bests.shape) * np.array([c1, c2])[:, None, None]
            new_pos, vel = step_swarm(pos, vel, bests, r, w, 1, 7)
            assert new_pos.tobytes() == pos.tobytes()
            assert (round_half_away(vel) == 0).all()

    # Recorded before a memoized search could stop at the swarm's fixed
    # point, by _searches_digest on the code of that time: stopping must
    # move no bit of any answer, trace or counter.
    @pytest.mark.parametrize(
        "make, runner, expected",
        [
            (toy_fir_problem, run_ppso,
             "859749ee0e938ffc82c9c33f67c839acca3ff84ab4858164b9a366280148e6f6"),
            (toy_fir_problem, run_gcpso,
             "a4f43a8f6c6130843b727716f65ebf6ba14d5dd20a1102055492b6e0f6d9a9d9"),
            (toy_receiver_problem, run_ppso,
             "177916329868abf72ad5a48f2361f4b34dd08fe0fd65b18931201817beb387d7"),
            (toy_receiver_problem, run_gcpso,
             "735ed77d6ee9aa35728de41a5877420a71771019d97284bc7b4caf969371f9a8"),
            (toy_qgd_problem, run_ppso,
             "b90ac1746273960803ad1c193368e461dc6727895d31c663c22433daa50302a3"),
            (toy_qgd_problem, run_gcpso,
             "6140f9932e00d93909db61aa8eab54f0c60b07e7da762701272601c82f6bc8ad"),
        ],
    )
    def test_toy_searches_reproduce_their_recorded_digests(self, make, runner, expected):
        assert _searches_digest(runner, make) == expected

    @pytest.mark.parametrize("runner", [run_ppso, run_gcpso])
    def test_a_frozen_memoized_restart_stops_early(self, runner):
        # 4 ** 3 = 64 allocations: the memo engages, and both swarms
        # settle on one row well before i_iter.
        p, cfg = toy_receiver_problem(0), SwarmConfig(seed=0, restarts=1)
        assert swarm._memo_engages(p, cfg)
        calls = [0]
        with _counting_steps(calls):
            result = runner(p, cfg)
        assert calls[0] < cfg.i_iter
        assert (result.trace[calls[0] :] == result.best_cost).all()

    @pytest.mark.parametrize("runner", [run_ppso, run_gcpso])
    def test_without_the_memo_every_iteration_steps(self, runner):
        p, cfg = toy_receiver_problem(0), SwarmConfig(seed=0, restarts=2)
        calls = [0]
        with _without_memo(), _counting_steps(calls):
            runner(p, cfg)
        assert calls[0] == cfg.i_iter * cfg.restarts
