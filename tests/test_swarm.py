"""Swarm engine: schedules, stepping, greedy repair and full runs."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bitalloc.problem import (
    ContractViolation,
    InfeasibleBudgetError,
    brute_force_optimum,
    penalized_fitness,
)
from bitalloc.swarm import (
    SwarmConfig,
    greedy_repair,
    greedy_repair_batch,
    init_swarm,
    run_gcpso,
    run_ppso,
    schedule_hyperparams,
    sensitivity,
    sensitivity_vector,
    snap_to_allowed,
    step_swarm,
)

from conftest import weighted_msqe_problem


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
            {"v_min": 3.0, "v_max": 3.0},
            {"w_min": 1.0, "w_max": 0.4},
            {"c1_min": 0.0},
            {"c1_min": 2.0, "c1_max": 1.0},
            {"c2_min": -0.5},
            {"penalty_weight": 0.0},
        ],
    )
    def test_invalid_settings_rejected(self, kwargs):
        with pytest.raises(ContractViolation):
            SwarmConfig(**kwargs)


class TestSchedule:
    def test_final_iteration_hits_extremes(self):
        cfg = SwarmConfig()
        w, c1, c2 = schedule_hyperparams(cfg, cfg.i_iter)
        assert w == pytest.approx(0.4)
        assert c1 == pytest.approx(0.5)
        assert c2 == pytest.approx(2.5)

    def test_midpoint(self):
        cfg = SwarmConfig()
        w, c1, c2 = schedule_hyperparams(cfg, 50)
        assert w == pytest.approx(0.65)
        assert c1 == pytest.approx(1.5)
        assert c2 == pytest.approx(1.5)

    def test_constant_when_bounds_coincide(self):
        cfg = SwarmConfig(w_min=0.7, w_max=0.7)
        for it in (1, 37, 100):
            assert schedule_hyperparams(cfg, it)[0] == pytest.approx(0.7)

    def test_one_based_indexing_enforced(self):
        cfg = SwarmConfig()
        with pytest.raises(ContractViolation):
            schedule_hyperparams(cfg, 0)
        with pytest.raises(ContractViolation):
            schedule_hyperparams(cfg, cfg.i_iter + 1)


class TestSnapToAllowed:
    def test_contiguous_range_clips(self):
        allowed = np.arange(1, 8)
        np.testing.assert_array_equal(
            snap_to_allowed(np.array([9.7, 0.0, 3.2]), allowed), [7, 1, 3]
        )

    def test_gapped_set_rounds_to_nearest(self):
        allowed = np.array([1, 3, 6])
        np.testing.assert_array_equal(
            snap_to_allowed(np.array([4.4, 5.2, 100.0, -2.0]), allowed), [3, 6, 6, 1]
        )

    def test_ties_resolve_to_smaller_member(self):
        allowed = np.array([1, 3, 6])
        np.testing.assert_array_equal(
            snap_to_allowed(np.array([2.0, 4.5]), allowed), [1, 3]
        )


class TestStepSwarm:
    CFG = SwarmConfig(n_pop=1, i_iter=1, restarts=1)
    ALLOWED = np.arange(1, 8)

    def test_converged_swarm_is_a_fixed_point(self):
        pos = np.array([[3, 4], [3, 4]])
        vel = np.zeros((2, 2))
        new_pos, new_vel = step_swarm(
            pos, vel, pos.copy(), pos[0], 0.8, 1.2, 1.7,
            np.full((2, 2), 0.5), np.full((2, 2), 0.5), self.CFG, self.ALLOWED,
        )
        np.testing.assert_array_equal(new_pos, pos)
        np.testing.assert_array_equal(new_vel, 0.0)

    def test_position_move_rounds_half_away_from_zero(self):
        # With matching bests the attraction terms vanish and w = 1
        # keeps the velocity, so the move is round(vel) exactly.
        pos = np.array([[2, 2]])
        vel = np.array([[2.6, 2.5]])
        new_pos, new_vel = step_swarm(
            pos, vel, pos.copy(), pos[0], 1.0, 1.0, 1.0,
            np.zeros((1, 2)), np.zeros((1, 2)), self.CFG, self.ALLOWED,
        )
        np.testing.assert_array_equal(new_pos, [[5, 5]])
        np.testing.assert_allclose(new_vel, vel)

    def test_velocity_clamped_before_move(self):
        pos = np.array([[2, 4]])
        vel = np.array([[10.0, -10.0]])
        new_pos, new_vel = step_swarm(
            pos, vel, pos.copy(), pos[0], 1.0, 1.0, 1.0,
            np.zeros((1, 2)), np.zeros((1, 2)), self.CFG, self.ALLOWED,
        )
        np.testing.assert_allclose(new_vel, [[3.0, -3.0]])
        np.testing.assert_array_equal(new_pos, [[5, 1]])

    def test_positions_stay_in_allowed_set(self):
        allowed = np.array([1, 3, 6])
        rng = np.random.default_rng(11)
        pos = allowed[rng.integers(0, 3, size=(8, 4))]
        vel = rng.uniform(-3, 3, size=(8, 4))
        p_best = allowed[rng.integers(0, 3, size=(8, 4))]
        g_best = allowed[rng.integers(0, 3, size=4)]
        new_pos, _ = step_swarm(
            pos, vel, p_best, g_best, 0.9, 2.0, 2.0,
            rng.random((8, 4)), rng.random((8, 4)), self.CFG, allowed,
        )
        assert np.isin(new_pos, allowed).all()


class TestInitSwarm:
    def test_all_particles_start_uniform(self):
        p = weighted_msqe_problem([1.0, 1.0, 1.0], budget=9.0)
        cfg = SwarmConfig(n_pop=12, i_iter=5, restarts=1)
        pos, vel, g_guess = init_swarm(p, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(pos, np.full((12, 3), 3))
        assert vel.shape == (12, 3)
        assert (vel >= cfg.v_min).all() and (vel <= cfg.v_max).all()
        assert np.isin(g_guess, p.allowed_values).all()

    def test_seed_changes_velocities_not_positions(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=6.0)
        cfg = SwarmConfig(n_pop=6, i_iter=5, restarts=1)
        pos_a, vel_a, _ = init_swarm(p, cfg, np.random.default_rng(1))
        pos_b, vel_b, _ = init_swarm(p, cfg, np.random.default_rng(2))
        np.testing.assert_array_equal(pos_a, pos_b)
        assert not np.array_equal(vel_a, vel_b)

    def test_budget_average_outside_set_warns_and_snaps(self):
        p = weighted_msqe_problem(
            [1.0, 1.0], allowed=(1, 3, 5), budget=10.0, budget_bits=2
        )
        cfg = SwarmConfig(n_pop=4, i_iter=5, restarts=1)
        with pytest.warns(UserWarning, match="not an allowed value"):
            pos, _, _ = init_swarm(p, cfg, np.random.default_rng(0))
        # 2 ties between 1 and 3 and resolves down.
        np.testing.assert_array_equal(pos, np.full((4, 2), 1))


class TestSensitivity:
    def test_closed_form_on_weighted_msqe(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        b = [3, 3]
        # Dropping one bit quadruples that term: delta = 3 w_j 2^(-2 b_j).
        assert sensitivity(p, b, 0) == pytest.approx(3 * 2.0 * 2.0**-6)
        assert sensitivity(p, b, 1) == pytest.approx(3 * 0.5 * 2.0**-6)

    def test_floor_coordinate_rejected(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        with pytest.raises(ContractViolation):
            sensitivity(p, [1, 3], 0)

    def test_coordinate_index_checked(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        with pytest.raises(ContractViolation):
            sensitivity(p, [3, 3], 2)

    def test_vector_form_marks_floor_infinite(self):
        p = weighted_msqe_problem([2.0, 0.5], budget=6.0)
        vec = sensitivity_vector(p, [1, 3])
        assert vec[0] == np.inf
        assert vec[1] == pytest.approx(3 * 0.5 * 2.0**-6)


@st.composite
def step_down_cases(draw):
    """A weighted-MSQE toy on a contiguous or gapped set, a row in that
    set, and a budget exactly one unit below the row's consumption."""
    allowed = draw(st.sampled_from([tuple(range(1, 8)), (1, 2, 4, 7)]))
    n = draw(st.integers(2, 5))
    weights = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=n, max_size=n))
    b = np.array(draw(st.lists(st.sampled_from(allowed), min_size=n, max_size=n)))
    # budget_bits outside the set skips the uniform-start gate.
    p = weighted_msqe_problem(weights, allowed=allowed, budget=b.sum() - 1.0, budget_bits=0)
    return p, b


class TestSharedStepDown:
    @given(step_down_cases())
    def test_vector_and_single_sensitivity_agree(self, case):
        p, b = case
        vec = sensitivity_vector(p, b)
        for j in range(p.dimension):
            if b[j] > p.allowed_values[0]:
                assert vec[j] == sensitivity(p, b, j)
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
        j = int(np.argmin(sensitivity_vector(p, b)))  # lowest index on ties
        expected = b.copy()
        expected[j] = max(v for v in p.allowed_values if v < b[j])
        np.testing.assert_array_equal(greedy_repair(p, b), expected)


class TestGreedyRepair:
    def test_feasible_rows_untouched(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=8.0, budget_bits=4)
        np.testing.assert_array_equal(greedy_repair(p, [4, 3]), [4, 3])

    def test_rescale_reaches_feasibility_alone(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=8.0, budget_bits=4)
        np.testing.assert_array_equal(greedy_repair(p, [6, 6]), [4, 4])
        np.testing.assert_array_equal(greedy_repair(p, [5, 4]), [4, 4])

    def test_decrement_removes_least_sensitive_bit(self):
        # After rescaling, (3, 3) rounds back to itself and stays one
        # unit over, so one greedy decrement must fire; the lighter
        # second coordinate loses its bit.
        p = weighted_msqe_problem([4.0, 1.0], budget=5.0, budget_bits=2)
        np.testing.assert_array_equal(greedy_repair(p, [3, 3]), [3, 2])

    def test_tie_decrements_lowest_index(self):
        p = weighted_msqe_problem([1.0, 1.0], budget=5.0, budget_bits=2)
        np.testing.assert_array_equal(greedy_repair(p, [3, 3]), [2, 3])

    def test_idempotent(self):
        p = weighted_msqe_problem([4.0, 1.0, 2.0], budget=7.0, budget_bits=2)
        once = greedy_repair(p, [7, 7, 7])
        np.testing.assert_array_equal(greedy_repair(p, once), once)

    def test_batch_matches_single_rows(self):
        p = weighted_msqe_problem([4.0, 1.0, 2.0], budget=9.0)
        rng = np.random.default_rng(7)
        mat = rng.integers(1, 8, size=(12, 3))
        batch = greedy_repair_batch(p, mat)
        for row_in, row_out in zip(mat, batch):
            np.testing.assert_array_equal(greedy_repair(p, row_in), row_out)
        assert (p.evaluate_consumption_batch(batch) <= p.budget).all()

    def test_unreachable_budget_raises(self):
        p = weighted_msqe_problem([1.0, 1.0], allowed=(1, 2), budget=1.5, budget_bits=0)
        with pytest.raises(InfeasibleBudgetError):
            greedy_repair(p, [2, 2])

    def test_stuck_row_detected_inside_mixed_batch(self):
        p = weighted_msqe_problem([1.0, 1.0], allowed=(1, 2), budget=1.5, budget_bits=0)
        with pytest.raises(InfeasibleBudgetError):
            greedy_repair_batch(p, np.array([[2, 2], [1, 1]]))


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
            penalized_fitness(p, result.best, self.CFG.penalty_weight)
        )

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
        assert base.seed == 5

    def test_per_particle_draw_mode_runs(self):
        p = self.toy()
        cfg = SwarmConfig(
            n_pop=20, i_iter=20, restarts=1, seed=0, per_dimension_draws=False
        )
        result = run_gcpso(p, cfg)
        assert p.is_feasible(result.best)
        assert result.best_cost <= result.trace[0]
