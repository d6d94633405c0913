"""Quantized gradient descent: losses, gradient coding, training loop."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from bitalloc.problem import ContractViolation
from bitalloc.qgd import (
    DEFAULT_STEP_SWARM,
    QgdTask,
    _loss_batch,
    gaussian_least_squares,
    gradient,
    load_sparse_dataset,
    loss,
    qgd_problem,
    quantize_gradient,
    synthetic_classification,
    train,
)
from bitalloc.swarm import SwarmConfig


def tiny_least_squares(**overrides):
    kwargs = dict(n_rows=40, n_cols=5, eta=0.01, t_iter=5, budget_bits=4, seed=1)
    kwargs.update(overrides)
    return gaussian_least_squares(**kwargs)


class TestLossAndGradient:
    def test_least_squares_hand_value(self):
        task = QgdTask(
            kind="least_squares",
            features=np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]),
            targets=np.array([1.0, 2.0, 3.0]),
            eta=0.1,
            t_iter=1,
            budget_bits=2,
        )
        z = np.array([1.0, 1.0])
        # residual (0, 0, 1): loss = 0.5, gradient = A^T (Az - y).
        assert loss(task, z) == pytest.approx(0.5)
        np.testing.assert_allclose(gradient(task, z), [-1.0, -1.0])

    def test_logistic_hand_values_at_origin(self):
        task = QgdTask(
            kind="logistic",
            features=np.array([[1.0, 0.0], [0.0, 1.0]]),
            targets=np.array([1.0, -1.0]),
            eta=0.1,
            t_iter=1,
            budget_bits=2,
        )
        z = np.zeros(2)
        assert loss(task, z) == pytest.approx(math.log(2.0))
        # All sigmoids are 1/2 at the origin and the ridge term vanishes.
        np.testing.assert_allclose(gradient(task, z), [-0.25, 0.25])

    @pytest.mark.parametrize("factory", [tiny_least_squares, synthetic_classification])
    def test_gradient_matches_finite_differences(self, factory):
        task = factory() if factory is tiny_least_squares else factory(
            n_samples=50, n_features=5, seed=3
        )
        rng = np.random.default_rng(8)
        z = rng.standard_normal(task.dimension)
        g = gradient(task, z)
        eps = 1e-6
        for j in range(task.dimension):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            fd = (loss(task, zp) - loss(task, zm)) / (2.0 * eps)
            assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-6)

    def test_batch_loss_matches_loop(self):
        for task in (tiny_least_squares(), synthetic_classification(50, 5, seed=3)):
            zs = np.random.default_rng(4).standard_normal((6, task.dimension))
            np.testing.assert_allclose(
                _loss_batch(task, zs), [loss(task, row) for row in zs], rtol=1e-12
            )


class TestTaskValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractViolation):
            QgdTask(
                kind="svm", features=np.eye(2), targets=np.ones(2),
                eta=0.1, t_iter=1, budget_bits=2,
            )

    def test_logistic_labels_must_be_signs(self):
        with pytest.raises(ContractViolation):
            QgdTask(
                kind="logistic", features=np.eye(2), targets=np.array([1.0, 0.0]),
                eta=0.1, t_iter=1, budget_bits=2,
            )

    def test_underdetermined_least_squares_rejected(self):
        with pytest.raises(ContractViolation):
            gaussian_least_squares(n_rows=10, n_cols=20)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            QgdTask(
                kind="least_squares", features=np.eye(3), targets=np.ones(2),
                eta=0.1, t_iter=1, budget_bits=2,
            )

    def test_bad_hyperparameters_rejected(self):
        for kwargs in ({"eta": 0.0}, {"t_iter": 0}, {"budget_bits": 0}):
            base = dict(
                kind="least_squares", features=np.eye(2), targets=np.ones(2),
                eta=0.1, t_iter=1, budget_bits=2,
            )
            base.update(kwargs)
            with pytest.raises(ContractViolation):
                QgdTask(**base)

    def test_target_vector_shape_checked(self):
        with pytest.raises(ContractViolation):
            QgdTask(
                kind="least_squares", features=np.eye(3), targets=np.ones(3),
                eta=0.1, t_iter=1, budget_bits=2, z_star=np.ones(2),
            )

    def test_allowed_values_span_double_the_average(self):
        assert tiny_least_squares().allowed_values == tuple(range(1, 10))


class TestQuantizeGradient:
    def test_zero_gradient_passes_through(self):
        np.testing.assert_array_equal(
            quantize_gradient(np.zeros(3), np.full(3, 4)), np.zeros(3)
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            quantize_gradient(np.ones(3), np.full(4, 4))

    def test_single_spike_saturates(self):
        g = np.array([0.0, 0.0, 5.0])
        q = quantize_gradient(g, np.full(3, 3))
        np.testing.assert_allclose(q, [0.0, 0.0, 5.0 * (1.0 - 2.0**-3)])

    def test_per_coordinate_error_bound(self):
        rng = np.random.default_rng(6)
        g = rng.standard_normal(12)
        bits = rng.integers(2, 9, size=12)
        q = quantize_gradient(g, bits)
        norm = np.linalg.norm(g)
        assert (np.abs(q - g) <= norm * np.exp2(-bits.astype(float)) + 1e-15).all()

    def test_euclidean_error_bound(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal(20)
        bits = np.full(20, 5)
        q = quantize_gradient(g, bits)
        bound = np.linalg.norm(g) * math.sqrt(20) * 2.0**-5
        assert np.linalg.norm(q - g) <= bound


class TestQgdProblem:
    def test_converged_point_rejected(self):
        task = tiny_least_squares()
        with pytest.raises(ContractViolation, match="converged"):
            qgd_problem(task, task.z_star)

    def test_budget_and_consumption(self):
        task = tiny_least_squares()
        p = qgd_problem(task, np.zeros(5))
        assert p.budget == 5 * 4.0
        assert p.evaluate_consumption(np.full(5, 4)) == p.budget
        assert p.allowed_values == tuple(range(1, 10))

    def test_objective_is_post_step_loss(self):
        task = tiny_least_squares()
        z = np.full(5, 0.3)
        p = qgd_problem(task, z)
        bits = np.array([2, 5, 3, 4, 6])
        g = gradient(task, z)
        expected = loss(task, z - task.eta * quantize_gradient(g, bits))
        assert p.evaluate_objective(bits) == pytest.approx(expected, rel=1e-12)

    def test_batch_matches_scalar(self):
        task = tiny_least_squares()
        p = qgd_problem(task, np.full(5, 0.3))
        mat = np.array([[4, 4, 4, 4, 4], [1, 2, 3, 4, 5], [9, 9, 9, 9, 9]])
        np.testing.assert_allclose(
            p.evaluate_objective_batch(mat),
            [p.evaluate_objective(row) for row in mat],
            rtol=1e-12,
        )


class TestTrain:
    def test_uniform_descent_converges_on_noiseless_target(self):
        task = tiny_least_squares(t_iter=150, eta=0.005)
        result = train(task, "uniform")
        assert result.metric_trace.shape == (151,)
        assert result.loss_trace[-1] < 1e-6 * result.loss_trace[0]
        assert result.metric_trace[-1] < 1e-3 * result.metric_trace[0]
        assert (result.allocations == 4).all()

    def test_generous_bits_reproduce_plain_descent(self):
        task = tiny_least_squares(budget_bits=40, t_iter=20, eta=0.005)
        result = train(task, "uniform")
        z = np.zeros(5)
        for _ in range(20):
            z = z - task.eta * gradient(task, z)
        np.testing.assert_allclose(result.z, z, atol=1e-9)

    def test_metric_is_distance_when_target_known(self):
        task = tiny_least_squares(t_iter=3)
        result = train(task, "uniform")
        assert result.metric_trace[0] == pytest.approx(np.linalg.norm(task.z_star))
        assert result.loss_trace[0] == pytest.approx(loss(task, np.zeros(5)))

    def test_metric_falls_back_to_loss(self):
        task = synthetic_classification(40, 4, eta=0.2, t_iter=3, seed=5)
        result = train(task, "uniform")
        np.testing.assert_allclose(result.metric_trace, result.loss_trace)

    def test_swarm_strategies_respect_budget_and_reproduce(self):
        task = tiny_least_squares(t_iter=4)
        cfg = SwarmConfig(n_pop=20, i_iter=10, restarts=1, penalty_weight=1e5, seed=9)
        for strategy in ("ppso", "gcpso"):
            a = train(task, strategy, swarm_config=cfg)
            b = train(task, strategy, swarm_config=cfg)
            assert (a.allocations.sum(axis=1) <= 5 * 4).all()
            np.testing.assert_array_equal(a.allocations, b.allocations)
            np.testing.assert_allclose(a.metric_trace, b.metric_trace)

    def test_default_step_config_seeds_from_task(self):
        task = tiny_least_squares(t_iter=3, seed=11)
        from dataclasses import replace

        implicit = train(task, "gcpso")
        explicit = train(task, "gcpso", swarm_config=replace(DEFAULT_STEP_SWARM, seed=11))
        np.testing.assert_array_equal(implicit.allocations, explicit.allocations)
        np.testing.assert_allclose(implicit.metric_trace, explicit.metric_trace)

    def test_converged_start_freezes_traces(self):
        task = QgdTask(
            kind="least_squares",
            features=np.eye(3),
            targets=np.zeros(3),
            eta=0.1,
            t_iter=4,
            budget_bits=3,
            z_star=np.zeros(3),
        )
        result = train(task, "uniform")
        assert result.converged_at == 0
        np.testing.assert_allclose(result.metric_trace, 0.0)
        np.testing.assert_allclose(result.loss_trace, 0.0)
        assert result.allocations.shape == (4, 3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractViolation):
            train(tiny_least_squares(), "random")


class TestConstructors:
    def test_planted_target_is_exact_when_noiseless(self):
        task = gaussian_least_squares(n_rows=30, n_cols=6, seed=2)
        np.testing.assert_allclose(task.features @ task.z_star, task.targets)
        assert loss(task, task.z_star) == pytest.approx(0.0, abs=1e-20)

    def test_noise_perturbs_targets(self):
        clean = gaussian_least_squares(n_rows=30, n_cols=6, seed=2)
        noisy = gaussian_least_squares(n_rows=30, n_cols=6, seed=2, noise_std=0.5)
        np.testing.assert_array_equal(clean.features, noisy.features)
        assert not np.allclose(clean.targets, noisy.targets)

    def test_seeded_determinism(self):
        a = gaussian_least_squares(seed=7)
        b = gaussian_least_squares(seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        c = gaussian_least_squares(seed=8)
        assert not np.array_equal(a.features, c.features)

    def test_classification_labels_and_shapes(self):
        task = synthetic_classification(n_samples=60, n_features=7, seed=0)
        assert task.features.shape == (60, 7)
        assert np.isin(task.targets, (-1.0, 1.0)).all()
        assert task.kind == "logistic"


class TestSparseLoader:
    def test_one_based_rows(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("3 1:0.5 3:1.0\n7 2:-1.0\n")
        task = load_sparse_dataset(path)
        assert task.features.shape == (2, 3)
        np.testing.assert_allclose(task.features[0], [0.5, 0.0, 1.0])
        np.testing.assert_allclose(task.features[1], [0.0, -1.0, 0.0])
        # Smaller raw label becomes -1.
        np.testing.assert_array_equal(task.targets, [-1.0, 1.0])

    def test_zero_based_rows(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 0:2.0\n-1 1:3.0\n")
        task = load_sparse_dataset(path)
        assert task.features.shape == (2, 2)
        np.testing.assert_allclose(task.features[0], [2.0, 0.0])

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# header\n1 1:1.0\n\n2 1:2.0  # trailing\n")
        assert load_sparse_dataset(path).features.shape == (2, 1)

    def test_more_than_two_labels_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0\n2 1:1.0\n3 1:1.0\n")
        with pytest.raises(ContractViolation, match="two label values"):
            load_sparse_dataset(path)

    def test_malformed_row_reported_with_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("1 1:1.0\n2 oops\n")
        with pytest.raises(ContractViolation, match=":2:"):
            load_sparse_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ContractViolation, match="no samples"):
            load_sparse_dataset(path)


class TestConvergenceScript:
    def test_logistic_task_runs(self, tmp_path):
        path = Path(__file__).resolve().parent.parent / "scripts" / "qgd_convergence.py"
        spec = importlib.util.spec_from_file_location("qgd_convergence", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        out = tmp_path / "trace.csv"
        script.main(["--task", "logistic", "--steps", "2", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[:2] == ["# seed=0", "iteration,loss_uniform,loss_ppso,loss_gcpso"]
        assert [line.split(",")[0] for line in lines[2:]] == ["0", "1", "2"]
