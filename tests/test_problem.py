"""Allocation-problem contract, penalty wrapper and exhaustive oracle."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalloc.fir import CoefficientSet, FilterSpec, fir_problem
from bitalloc.problem import (
    AllocationProblem,
    ContractViolation,
    InfeasibleBudgetError,
    SearchSpaceTooLarge,
    brute_force_optimum,
    penalized_fitness,
    penalized_fitness_batch,
)

from conftest import weighted_msqe_problem


def linear_problem(dimension, allowed, budget, objective, budget_bits=1):
    """Plain sum consumption with a per-row objective lifted to batch form."""
    return AllocationProblem(
        dimension=dimension,
        allowed_values=allowed,
        budget_bits=budget_bits,
        budget=float(budget),
        objective_batch=lambda mat: np.array([objective(row) for row in mat]),
        consumption_batch=lambda mat: np.asarray(mat, dtype=float).sum(axis=1),
    )


class TestAllocationProblem:
    def test_allowed_values_sorted_and_deduplicated(self):
        p = linear_problem(2, (3, 1, 2, 3), 10.0, lambda b: 0.0)
        assert p.allowed_values == (1, 2, 3)

    def test_empty_allowed_set_rejected(self):
        with pytest.raises(ContractViolation):
            linear_problem(2, (), 10.0, lambda b: 0.0)

    def test_infeasible_uniform_start_rejected(self):
        # budget_bits = 3 is in the set but 2 * 3 > 5.
        with pytest.raises(ContractViolation):
            linear_problem(2, (1, 2, 3), 5.0, lambda b: 0.0, budget_bits=3)

    def test_vector_shape_checked(self):
        p = linear_problem(3, (1, 2), 6.0, lambda b: 0.0)
        with pytest.raises(ContractViolation):
            p.evaluate_objective([1, 2])
        with pytest.raises(ContractViolation):
            p.evaluate_consumption(np.ones((2, 3)))

    def test_single_vector_goes_through_batch_callables_as_one_row(self):
        seen = []

        def objective_batch(mat):
            seen.append(mat.shape)
            return (np.asarray(mat, dtype=float) ** 2).sum(axis=1)

        p = AllocationProblem(
            dimension=3,
            allowed_values=(1, 2, 3),
            budget_bits=3,
            budget=9.0,
            objective_batch=objective_batch,
            consumption_batch=lambda mat: np.asarray(mat, dtype=float).sum(axis=1),
        )
        mat = np.array([[1, 2, 3], [3, 3, 3], [1, 1, 1]])
        expected = [p.evaluate_objective(row) for row in mat]
        assert seen == [(1, 3)] * 3
        np.testing.assert_array_equal(p.evaluate_objective_batch(mat), expected)
        assert [p.evaluate_consumption(row) for row in mat] == [6.0, 9.0, 3.0]

    def test_bad_batch_shape_reported(self):
        p = linear_problem(2, (1, 2), 4.0, lambda b: 0.0)
        bad = replace(p, objective_batch=lambda mat: np.zeros((mat.shape[0], 2)))
        with pytest.raises(ContractViolation, match="batch objective returned shape"):
            bad.evaluate_objective_batch(np.ones((3, 2), dtype=np.int64))
        # The uniform-start check at construction already evaluates C.
        with pytest.raises(ContractViolation, match="batch consumption returned shape"):
            replace(p, consumption_batch=lambda mat: np.ones((mat.shape[0], 2)))

    def test_feasibility_boundary_inclusive(self):
        p = linear_problem(2, (1, 2, 3), 4.0, lambda b: 0.0)
        assert p.is_feasible([2, 2])
        assert not p.is_feasible([2, 3])


class TestPenalizedFitness:
    def test_feasible_point_is_plain_objective(self):
        p = weighted_msqe_problem([1.0, 2.0], budget=6.0)
        b = np.array([3, 3])
        assert penalized_fitness(p, b, 1e3) == p.evaluate_objective(b)

    def test_unit_violation_adds_weight(self):
        p = linear_problem(2, tuple(range(1, 9)), 4.0, lambda b: 7.0, budget_bits=2)
        # C = 5 exceeds the budget of 4 by exactly one unit.
        assert penalized_fitness(p, [2, 3], 1e3) == pytest.approx(7.0 + 1000.0)

    def test_symmetric_filter_toy_penalty(self):
        # 3-tap filter, so two unique coefficients; the worked case is
        # the mirrored allocation (5, 5, 5) at a 4-bit average, whose
        # consumption 2*5 + 5 = 15 overshoots the budget 3*4 = 12 by 3.
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 3)
        coeffs = CoefficientSet(h=np.array([0.25, 0.5, 0.25]))
        p = fir_problem(spec, coeffs, "fixed", budget_bits=4)
        b = np.array([5, 5])
        assert p.evaluate_consumption(b) == 15.0
        penalty = penalized_fitness(p, b, 1e3) - p.evaluate_objective(b)
        assert penalty == pytest.approx(3000.0)

    def test_nonpositive_weight_rejected(self):
        p = weighted_msqe_problem([1.0])
        with pytest.raises(ContractViolation):
            penalized_fitness(p, [3], 0.0)
        with pytest.raises(ContractViolation):
            penalized_fitness(p, [3], -1.0)

    def test_batch_matches_scalar(self):
        p = weighted_msqe_problem([1.0, 2.0, 4.0], budget=7.0, budget_bits=2)
        mat = np.array([[2, 2, 2], [3, 3, 3], [7, 7, 7], [1, 1, 1]])
        batch = penalized_fitness_batch(p, mat, 10.0)
        scalar = [penalized_fitness(p, row, 10.0) for row in mat]
        np.testing.assert_allclose(batch, scalar)

    @given(
        bits=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        weight=st.floats(1e-3, 1e6),
    )
    def test_exceeds_objective_only_when_infeasible(self, bits, weight):
        p = weighted_msqe_problem(np.ones(len(bits)), budget=3.0 * len(bits))
        b = np.asarray(bits)
        fitness = penalized_fitness(p, b, weight)
        objective = p.evaluate_objective(b)
        if p.is_feasible(b):
            assert fitness == objective
        else:
            assert fitness > objective


class TestBruteForceOptimum:
    def test_single_coordinate(self):
        p = linear_problem(1, (1, 2), 2.0, lambda b: -float(b[0]), budget_bits=2)
        best, value = brute_force_optimum(p)
        np.testing.assert_array_equal(best, [2])
        assert value == -2.0

    def test_symmetric_convexity_forces_uniform_split(self):
        p = weighted_msqe_problem([1.0, 1.0], allowed=(1, 2, 3), budget=4.0, budget_bits=2)
        best, value = brute_force_optimum(p)
        np.testing.assert_array_equal(best, [2, 2])
        assert value == pytest.approx(2 * 2.0**-4)

    def test_tie_break_is_lexicographic_and_deterministic(self):
        p = linear_problem(2, (1, 2, 3), 6.0, lambda b: 0.0)
        first = brute_force_optimum(p)
        second = brute_force_optimum(p)
        np.testing.assert_array_equal(first[0], [1, 1])
        np.testing.assert_array_equal(first[0], second[0])
        assert first[1] == second[1] == 0.0

    def test_beats_every_feasible_candidate(self):
        rng = np.random.default_rng(3)
        p = weighted_msqe_problem(
            rng.uniform(0.5, 4.0, size=3), allowed=(1, 2, 3, 4), budget=8.0, budget_bits=2
        )
        best, value = brute_force_optimum(p)
        assert p.is_feasible(best)
        grid = np.array(np.meshgrid(*[p.allowed_values] * 3)).reshape(3, -1).T
        feasible = grid[p.evaluate_consumption_batch(grid) <= p.budget]
        assert value <= p.evaluate_objective_batch(feasible).min() + 1e-15

    def test_cap_refusal_reports_size(self):
        p = linear_problem(8, tuple(range(1, 11)), 80.0, lambda b: 0.0)
        with pytest.raises(SearchSpaceTooLarge, match="10\\^8"):
            brute_force_optimum(p, cap=10**6)

    def test_no_feasible_point_reported(self):
        # budget below the all-minimum consumption; budget_bits outside
        # the set skips the uniform-start feasibility gate.
        p = linear_problem(2, (2, 3), 3.0, lambda b: 0.0, budget_bits=1)
        with pytest.raises(InfeasibleBudgetError):
            brute_force_optimum(p)

    def test_oracle_seeds_engine_reference(self):
        # The documented role of the oracle: give the swarm a target.
        p = weighted_msqe_problem([8.0, 4.0, 2.0, 1.0], allowed=tuple(range(1, 8)), budget=12.0)
        best, value = brute_force_optimum(p)
        assert p.is_feasible(best)
        assert p.evaluate_consumption(best) <= 12.0
        assert value == pytest.approx(p.evaluate_objective(best))
