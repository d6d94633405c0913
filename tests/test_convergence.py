"""Closed-form Lyapunov solution and the sufficient stability check."""

import math

import numpy as np
import pytest
import scipy.linalg

from bitalloc.convergence import (
    check_convergence_conditions,
    check_schedule,
    lyapunov_solution,
    order2_stable_from,
    state_matrix,
)
from bitalloc.problem import ContractViolation
from bitalloc.swarm import SwarmConfig, schedule_hyperparams


class TestWorkedExample:
    """w = 0.6, c1 = c2 = 1 is the reference point checked by hand."""

    def test_exact_matrix_entries(self):
        report = check_convergence_conditions(0.6, 1.0, 1.0)
        # den = 2 * 1 * (1 + 1 - 0.6) = 2.8
        assert report.P[0, 0] == pytest.approx(0.8428571428571429, abs=1e-15)
        assert report.P[0, 1] == pytest.approx(-0.2714285714285714, abs=1e-15)
        assert report.P[1, 0] == report.P[0, 1]
        assert report.P[1, 1] == pytest.approx(0.7714285714285715, abs=1e-15)

    def test_eigenvalue_and_threshold(self):
        report = check_convergence_conditions(0.6, 1.0, 1.0)
        assert report.lambda_max_P == pytest.approx(1.080911, abs=1e-4)
        assert report.threshold == pytest.approx(0.42874646285627205, abs=1e-15)

    def test_verdict(self):
        report = check_convergence_conditions(0.6, 1.0, 1.0)
        assert report.condition_1 is True
        assert report.condition_2 is False
        assert report.guaranteed is False


class TestLyapunovSolution:
    GRID_W = (0.1, 0.4, 0.6, 0.9, 1.2)
    GRID_C = (0.25, 0.5, 1.0, 1.5, 2.5)

    def test_residual_vanishes_on_grid(self):
        for w in self.GRID_W:
            for c in self.GRID_C:
                A = state_matrix(w, c)
                P = lyapunov_solution(w, c)
                residual = P @ A + A.T @ P + np.eye(2)
                assert np.abs(residual).max() <= 1e-12, (w, c)

    def test_matches_generic_solver(self):
        for w in self.GRID_W:
            for c in self.GRID_C:
                A = state_matrix(w, c)
                expected = scipy.linalg.solve_continuous_lyapunov(A.T, -np.eye(2))
                np.testing.assert_allclose(
                    lyapunov_solution(w, c), expected, atol=1e-10, err_msg=f"w={w} c={c}"
                )

    def test_symmetric(self):
        P = lyapunov_solution(0.7, 1.3)
        assert P[0, 1] == P[1, 0]

    def test_singular_pairs_rejected(self):
        with pytest.raises(ContractViolation):
            lyapunov_solution(2.0, 1.0)  # 1 + c - w = 0
        with pytest.raises(ContractViolation):
            lyapunov_solution(0.5, 0.0)  # c = 0


class TestCheckConvergenceConditions:
    def test_only_mean_attraction_matters(self):
        a = check_convergence_conditions(0.55, 0.5, 2.5)
        b = check_convergence_conditions(0.55, 2.5, 0.5)
        c = check_convergence_conditions(0.55, 1.5, 1.5)
        for other in (b, c):
            assert other.c == a.c == 1.5
            np.testing.assert_array_equal(other.P, a.P)
            assert other.lambda_max_P == a.lambda_max_P
            assert other.threshold == a.threshold

    def test_condition_1_boundaries(self):
        assert check_convergence_conditions(2.5, 1.0, 1.0).condition_1 is False
        assert check_convergence_conditions(-0.1, 1.0, 1.0).condition_1 is False
        assert check_convergence_conditions(0.0, 1.0, 1.0).condition_1 is False
        assert check_convergence_conditions(1.9, 1.0, 1.0).condition_1 is True

    def test_nonpositive_mean_attraction_rejected(self):
        with pytest.raises(ContractViolation):
            check_convergence_conditions(0.6, 0.0, 0.0)
        with pytest.raises(ContractViolation):
            check_convergence_conditions(0.6, 1.0, -1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolation):
            check_convergence_conditions(math.nan, 1.0, 1.0)
        with pytest.raises(ContractViolation):
            check_convergence_conditions(0.6, math.inf, 1.0)

    def test_threshold_formula(self):
        report = check_convergence_conditions(0.3, 0.4, 0.6)
        c = 0.5
        assert report.threshold == pytest.approx(1.0 / (2.0 * math.sqrt(c * c + 0.09)))


class TestScheduleCheck:
    def test_default_schedule_worst_point(self):
        i_iter = SwarmConfig().i_iter
        report = check_schedule(i_iter)
        # Opposite equal-rate acceleration sweeps keep c pinned at 1.5.
        assert report.c == pytest.approx(1.5)
        assert report.guaranteed is False
        # Manual scan of the shipped schedule, w from 0.9 down to 0.4:
        # the margin threshold - lambda_max(P) must match the minimum
        # over the same scheduled points.
        margins = []
        for it in range(1, i_iter + 1):
            w = 0.9 - 0.5 * it / i_iter
            point = check_convergence_conditions(w, 1.5, 1.5)
            margins.append(point.threshold - point.lambda_max_P)
        assert report.threshold - report.lambda_max_P == pytest.approx(min(margins))

    def test_every_default_schedule_point_fails_condition_2(self):
        i_iter = SwarmConfig().i_iter
        for it in range(1, i_iter + 1, 7):
            w = 0.9 - 0.5 * it / i_iter
            assert check_convergence_conditions(w, 1.5, 1.5).condition_2 is False

    def test_single_iteration_is_the_schedule_end_point(self):
        report = check_schedule(1)
        point = check_convergence_conditions(0.4, 0.5, 2.5)
        np.testing.assert_array_equal(report.P, point.P)
        assert report.lambda_max_P == point.lambda_max_P

    def test_bad_iteration_count_rejected(self):
        with pytest.raises(ContractViolation):
            check_schedule(0)


class TestOrderTwoRegion:
    """Poli (2009): c1 + c2 < 24 (1 - w^2) / (7 - 5 w) for |w| < 1."""

    def test_shipped_schedule_is_order2_stable_from_iteration_24(self):
        assert order2_stable_from(SwarmConfig().i_iter) == 24 == order2_stable_from(100)
        # By hand: w = 0.785 at iteration 23 and 0.78 at iteration 24,
        # against c1 + c2 = 3 throughout.
        assert 24 * (1 - 0.785**2) / (7 - 5 * 0.785) == pytest.approx(2.99531, abs=1e-5)
        assert 24 * (1 - 0.78**2) / (7 - 5 * 0.78) == pytest.approx(3.03174, abs=1e-5)

    def test_short_runs_scale_the_same_schedule(self):
        # Iteration it of i_iter has w = 0.9 - 0.5 it / i_iter, so the
        # switch falls at the first it with it / i_iter > 0.2313 (w < 0.7844).
        assert order2_stable_from(1) == 1
        assert order2_stable_from(10) == 3
        assert order2_stable_from(1000) == 232

    def test_last_iteration_always_qualifies(self):
        # So order2_stable_from needs no answer for "never".
        for iterations in range(1, 301):
            w, c1, c2 = schedule_hyperparams(iterations, iterations)
            assert (w, c1 + c2) == (0.4, 3.0)
            assert c1 + c2 < 24 * (1 - w * w) / (7 - 5 * w)
            assert order2_stable_from(iterations) <= iterations

    def test_bad_iteration_count_rejected(self):
        with pytest.raises(ContractViolation):
            order2_stable_from(0)
