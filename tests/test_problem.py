"""Allocation-problem contract, penalty wrapper and exhaustive oracle."""

import itertools
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bitalloc.fir import CoefficientSet, FilterSpec, fir_problem
from bitalloc.problem import (
    AllocationProblem,
    ContractViolation,
    SearchSpaceTooLarge,
    brute_force_optimum,
    by_chunks,
    lattice_index,
    penalized_fitness_batch,
    read_text,
)
from bitalloc.swarm import SwarmConfig, _Objective

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

    def test_gapped_allowed_set_rejected(self):
        with pytest.raises(ContractViolation, match=r"contiguous range, got \(1, 2, 4\)"):
            linear_problem(2, (4, 1, 2), 10.0, lambda b: 0.0)

    def test_infeasible_uniform_start_rejected(self):
        # budget_bits = 3 is in the set but 2 * 3 > 5.
        with pytest.raises(ContractViolation):
            linear_problem(2, (1, 2, 3), 5.0, lambda b: 0.0, budget_bits=3)

    def test_budget_bits_outside_allowed_values_rejected(self):
        # This problem used to build, and then each engine and the oracle
        # failed late with a different message: run_ppso blamed its
        # penalty weight, run_gcpso its repair, the oracle the budget.
        message = r"budget_bits 0 is not in allowed_values \(1, 2\)"
        with pytest.raises(ContractViolation, match=message):
            weighted_msqe_problem([1.0, 1.0], allowed=(1, 2), budget=1.5, budget_bits=0)

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

    def test_nan_objective_rejected_with_its_row(self):
        p = linear_problem(2, (1, 2), 4.0, lambda b: math.nan if b[1] == 2 else 0.0)
        message = r"objective returned NaN for row 1, allocation \[1, 2\]"
        with pytest.raises(ContractViolation, match=message):
            p.evaluate_objective_batch(np.array([[1, 1], [1, 2], [2, 2]]))

    def test_nan_consumption_rejected_with_its_row(self):
        p = linear_problem(2, (1, 2), 4.0, lambda b: 0.0)
        bad = replace(p, consumption_batch=lambda mat: np.where(mat[:, 0] == 2, math.nan, 1.0))
        message = r"consumption returned NaN for row 0, allocation \[2, 1\]"
        with pytest.raises(ContractViolation, match=message):
            bad.evaluate_consumption_batch(np.array([[2, 1], [1, 1]]))

    def test_step_down_hook_checked_like_the_batch_evaluators(self):
        def hook(mat, lower):
            return np.where((mat == 2) & (lower == 1), math.nan, 0.0)

        p = replace(linear_problem(2, (1, 2), 4.0, lambda b: 0.0), objective_step_down=hook)
        mat = np.array([[1, 1], [1, 2]])
        lower = np.array([[1, 1], [1, 1]])
        with pytest.raises(ContractViolation, match=r"NaN for row 1, coordinate 1"):
            p.evaluate_step_down_batch(mat, lower)
        wrong = replace(p, objective_step_down=lambda mat, lower: np.zeros(mat.shape[0]))
        with pytest.raises(ContractViolation, match=r"objective_step_down returned shape \(2,\)"):
            wrong.evaluate_step_down_batch(mat, lower)

    def test_feasibility_boundary_inclusive(self):
        p = linear_problem(2, (1, 2, 3), 4.0, lambda b: 0.0)
        assert p.is_feasible([2, 2])
        assert not p.is_feasible([2, 3])


class TestPenalizedFitness:
    def test_feasible_point_is_plain_objective(self):
        p = weighted_msqe_problem([1.0, 2.0], budget=6.0)
        b = np.array([3, 3])
        assert penalized_fitness_batch(p, b[None, :], 1e3)[0] == p.evaluate_objective(b)

    def test_unit_violation_adds_weight(self):
        p = linear_problem(2, tuple(range(1, 9)), 4.0, lambda b: 7.0, budget_bits=2)
        # C = 5 exceeds the budget of 4 by exactly one unit.
        assert penalized_fitness_batch(p, [[2, 3]], 1e3)[0] == pytest.approx(7.0 + 1000.0)

    def test_symmetric_filter_toy_penalty(self):
        # 3-tap filter, so two unique coefficients; the worked case is
        # the mirrored allocation (5, 5, 5) at a 4-bit average, whose
        # consumption 2*5 + 5 = 15 overshoots the budget 3*4 = 12 by 3.
        spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], 3)
        coeffs = CoefficientSet(h=np.array([0.25, 0.5, 0.25]))
        p = fir_problem(spec, coeffs, "fixed", budget_bits=4)
        b = np.array([5, 5])
        assert p.evaluate_consumption(b) == 15.0
        penalty = penalized_fitness_batch(p, b[None, :], 1e3)[0] - p.evaluate_objective(b)
        assert penalty == pytest.approx(3000.0)

    def test_nonpositive_weight_rejected(self):
        p = weighted_msqe_problem([1.0])
        with pytest.raises(ContractViolation):
            penalized_fitness_batch(p, [[3]], 0.0)
        with pytest.raises(ContractViolation):
            penalized_fitness_batch(p, [[3]], -1.0)
        with pytest.raises(ContractViolation):  # inf * a zero violation is NaN
            penalized_fitness_batch(p, [[3]], np.inf)

    def test_batch_matches_scalar(self):
        p = weighted_msqe_problem([1.0, 2.0, 4.0], budget=7.0, budget_bits=2)
        mat = np.array([[2, 2, 2], [3, 3, 3], [7, 7, 7], [1, 1, 1]])
        batch = penalized_fitness_batch(p, mat, 10.0)
        scalar = [
            p.evaluate_objective(row) + 10.0 * max(0.0, p.evaluate_consumption(row) - p.budget)
            for row in mat
        ]
        np.testing.assert_allclose(batch, scalar)

    @given(
        bits=st.lists(st.integers(1, 7), min_size=1, max_size=5),
        weight=st.floats(1e-3, 1e6),
    )
    def test_exceeds_objective_only_when_infeasible(self, bits, weight):
        p = weighted_msqe_problem(np.ones(len(bits)), budget=3.0 * len(bits))
        b = np.asarray(bits)
        fitness = penalized_fitness_batch(p, b[None, :], weight)[0]
        objective = p.evaluate_objective(b)
        if p.is_feasible(b):
            assert fitness == objective
        else:
            assert fitness > objective


class TestLatticeIndex:
    """The lattice index the oracle enumerates by and the memo keys rows
    by, on a range whose floor is above 1 and a lattice of 5 ** 7 =
    78,125 rows, more than one 65,536-row oracle chunk."""

    ALLOWED = tuple(range(2, 7))
    PRODUCT = np.array(list(itertools.product(ALLOWED, repeat=7)))

    def problem(self, chunks):
        def consumption_batch(mat):
            chunks.append(mat.copy())
            return np.zeros(mat.shape[0])

        position = {tuple(row): float(k) for k, row in enumerate(self.PRODUCT.tolist())}
        p = AllocationProblem(
            dimension=7,
            allowed_values=self.ALLOWED,
            budget_bits=4,
            budget=0.0,
            objective_batch=lambda mat: np.array([position[tuple(r)] for r in mat.tolist()]),
            consumption_batch=consumption_batch,
        )
        chunks.clear()  # drop the uniform-start check's row
        return p

    def test_oracle_rows_are_the_product_in_order(self):
        chunks = []
        best, value = brute_force_optimum(self.problem(chunks))
        assert [len(c) for c in chunks] == [65536, 78125 - 65536]
        np.testing.assert_array_equal(np.concatenate(chunks), self.PRODUCT)
        np.testing.assert_array_equal(best, [2] * 7)
        assert value == 0.0

    def test_memo_key_of_each_oracle_row_is_its_index(self):
        chunks = []
        p = self.problem(chunks)
        brute_force_optimum(p)
        rows = np.concatenate(chunks)
        np.testing.assert_array_equal(lattice_index(p, rows), np.arange(len(rows)))
        # The memo stores each row's value at its key: F is the row's
        # position in the product, so the table reads 0, 1, 2, ...
        memo = _Objective(p, SwarmConfig(n_pop=len(rows), i_iter=1))
        assert memo.table is not None
        np.testing.assert_array_equal(memo(rows[::-1]), np.arange(len(rows))[::-1])
        np.testing.assert_array_equal(memo.table, np.arange(len(rows)))
        assert memo.rows == len(rows)


def test_text_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "data.txt"
    path.write_bytes("0.5\n".encode("utf-16"))
    with pytest.raises(ContractViolation, match=re.escape(f"{path}: not UTF-8 text")):
        read_text(path)
    path.write_text("0.5 # µ\n", encoding="utf-8")
    assert read_text(path) == "0.5 # µ\n"


def test_by_chunks_values_every_row_once_in_order():
    mat = np.arange(14).reshape(7, 2)
    blocks = []

    def row_sums(block):
        blocks.append(len(block))
        return block.sum(axis=1)

    for size in (1, 3, 7, 64):
        np.testing.assert_array_equal(by_chunks(row_sums, mat, size), mat.sum(axis=1))
    assert blocks == [1] * 7 + [3, 3, 1, 7, 7]
    empty = by_chunks(row_sums, mat[:0], 3)
    assert empty.shape == (0,) and blocks[-1] == 7


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

    def test_lattice_beyond_numpy_index_refused_whatever_the_cap(self):
        # 17^18 and 2^63 lattice points are more than intp can count, so
        # enumerating them raised "dimensions are too large" from numpy.
        cap = 10**26
        for n, allowed in ((18, tuple(range(17))), (63, (0, 1))):
            p = linear_problem(n, allowed, float(n), lambda b: 0.0, budget_bits=1)
            with pytest.raises(SearchSpaceTooLarge, match="more than numpy can index"):
                brute_force_optimum(p, cap=cap)
        # 2^62 fits an index, so the cap decides.
        p = linear_problem(62, (0, 1), 62.0, lambda b: 0.0, budget_bits=1)
        with pytest.raises(SearchSpaceTooLarge, match="exceeds the cap"):
            brute_force_optimum(p, cap=2**62 - 1)

    def test_no_feasible_point_reported(self):
        # A budget below the all-minimum consumption leaves no feasible
        # point, so no problem the oracle is given can have one: budget_bits
        # is either outside the set or an infeasible uniform start.
        with pytest.raises(ContractViolation, match="not in allowed_values"):
            linear_problem(2, (2, 3), 3.0, lambda b: 0.0, budget_bits=1)
        for budget_bits in (2, 3):
            with pytest.raises(ContractViolation, match="must be feasible"):
                linear_problem(2, (2, 3), 3.0, lambda b: 0.0, budget_bits=budget_bits)

    def test_infinite_objective_still_yields_the_first_feasible_vector(self):
        # Only strict improvements used to replace the inf incumbent, so
        # this feasible problem was reported infeasible.
        p = linear_problem(2, (1, 2, 3), 4.0, lambda b: math.inf, budget_bits=2)
        best, value = brute_force_optimum(p)
        np.testing.assert_array_equal(best, [1, 1])
        assert value == math.inf

    def test_nan_objective_is_a_contract_violation_not_infeasibility(self):
        # The NaN's row must not hide the feasible minimum of its chunk.
        p = linear_problem(
            3, (1, 2, 3, 4), 9.0, lambda b: math.nan if (b == 1).all() else -float(b.sum()),
            budget_bits=3,
        )
        with pytest.raises(ContractViolation, match=r"allocation \[1, 1, 1\]"):
            brute_force_optimum(p)

    def test_oracle_seeds_engine_reference(self):
        # The documented role of the oracle: give the swarm a target.
        p = weighted_msqe_problem([8.0, 4.0, 2.0, 1.0], allowed=tuple(range(1, 8)), budget=12.0)
        best, value = brute_force_optimum(p)
        assert p.is_feasible(best)
        assert p.evaluate_consumption(best) <= 12.0
        assert value == pytest.approx(p.evaluate_objective(best))
