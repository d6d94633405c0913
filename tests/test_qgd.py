"""Quantized gradient descent: losses, gradient coding, training loop."""

import gc
import math
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitalloc import qgd
from bitalloc.problem import ContractViolation, InfeasibleBudgetError
from bitalloc.qgd import (
    DEFAULT_STEP_SWARM,
    QgdTask,
    _loss_batch,
    gaussian_least_squares,
    gradient,
    loss,
    qgd_problem,
    quantize_gradient,
    synthetic_classification,
    train,
)
from bitalloc.swarm import (
    SwarmConfig,
    greedy_repair_batch,
    run_gcpso,
    run_ppso,
)

from conftest import assert_batch_composition_agrees


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
        for kwargs in ({"eta": 0.0}, {"eta": math.inf}, {"t_iter": 0}, {"budget_bits": 0}):
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

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)], ids=["no-rows", "no-columns"])
    def test_features_without_rows_or_columns_rejected(self, shape):
        # They trained into "Mean of empty slice" warnings and an
        # overflow blamed on eta, or wrote rows with empty bits.
        with pytest.raises(ContractViolation, match=re.escape(f"features have shape {shape}")):
            QgdTask(
                kind="logistic", features=np.zeros(shape), targets=np.ones(shape[0]),
                eta=0.1, t_iter=1, budget_bits=2,
            )

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize(
        "build, name",
        [
            (gaussian_least_squares, "n_rows"),
            (gaussian_least_squares, "n_cols"),
            (synthetic_classification, "n_samples"),
            (synthetic_classification, "n_features"),
        ],
    )
    def test_size_below_one_rejected_by_name(self, build, name, size):
        # -1 failed inside numpy's draw: "negative dimensions are not allowed".
        with pytest.raises(ContractViolation, match=f"^{name} must be >= 1, got {size}$"):
            build(**{name: size})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["features", "targets", "z_star"])
    def test_non_finite_data_rejected_by_name(self, name, bad):
        data = dict(features=np.eye(3), targets=np.ones(3), z_star=np.ones(3))
        data[name] = data[name].copy()
        data[name].flat[1] = bad
        with pytest.raises(ContractViolation, match=f"{name} has a non-finite entry"):
            QgdTask(kind="least_squares", eta=0.1, t_iter=1, budget_bits=2, **data)

    @pytest.mark.parametrize("build", [gaussian_least_squares, synthetic_classification])
    def test_budget_whose_widths_overflow_the_quantizer_rejected_by_name(self, build):
        # A budget of 600 built, and valuing a width of 1100 then raised
        # "eta = 0.001 overflowed the step objective", blaming eta.
        with pytest.raises(ContractViolation, match=r"^budget_bits must be >= 1 and <= 511, got 512$"):
            build(budget_bits=512)
        task = build(budget_bits=511, seed=1)
        problem = qgd_problem(task, np.zeros(task.dimension))
        widths = np.full((2, task.dimension), 1023)
        widths[1, ::2] = 1
        assert task.allowed_values[-1] == 1023
        assert np.isfinite(problem.evaluate_objective_batch(widths)).all()


class TestQuantizeGradient:
    def test_zero_gradient_passes_through(self):
        for bits in (np.full(3, 4), np.full((2, 3), 4)):
            out = quantize_gradient(np.zeros(3), bits)
            assert out.shape == bits.shape
            np.testing.assert_array_equal(out, 0.0)

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

    def test_values_agree_across_batch_compositions(self):
        task = gaussian_least_squares(n_rows=200, n_cols=20, eta=0.001, budget_bits=4, seed=0)
        assert_batch_composition_agrees(qgd_problem(task, np.zeros(task.dimension)))

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    @pytest.mark.parametrize("past", [-1, 1])
    def test_width_off_the_lattice_named(self, kind, past):
        # An off-lattice width used to be quantized like any other; read
        # from the step table, lo - 1 would wrap to hi and hi + 1 would
        # read the next coordinate's entry.
        if kind == "least_squares":
            task = tiny_least_squares()
        else:
            task = synthetic_classification(40, 5, t_iter=1, seed=5)
        p = qgd_problem(task, np.full(5, 0.3))
        lo, hi = p.allowed_values[0], p.allowed_values[-1]
        bad = np.full(5, 4)
        bad[2] = hi + 1 if past > 0 else lo - 1
        message = re.escape(f"row 0 allocation {bad.tolist()} has a width outside {lo}..{hi}")
        with pytest.raises(ContractViolation, match=message):
            p.evaluate_objective(bad)
        mat = np.stack([np.full(5, 4), bad])
        with pytest.raises(ContractViolation, match="row 1 allocation"):
            p.evaluate_objective_batch(mat)
        if p.objective_step_down is None:
            return
        with pytest.raises(ContractViolation, match="row 1 allocation"):
            p.evaluate_step_down_batch(mat)
        # The hook reads each step down from the task's table, which
        # holds no entry below lo: a floor coordinate is valued unchanged.
        floor = np.full((1, 5), lo)
        row_value = p.evaluate_objective_batch(floor)[0]
        assert (p.evaluate_step_down_batch(floor) == row_value).all()

    @pytest.mark.parametrize("kind", ["least_squares", "logistic"])
    @pytest.mark.parametrize("eta", [1e308, 1e200])
    def test_overflowing_step_objective_names_eta(self, kind, eta):
        # At 1e308 the least-squares objective overflowed eta g.q and
        # returned NaN, with two RuntimeWarnings, and the error named a
        # row rather than eta; at 1e200 eta^2 overflowed to a value of inf.
        if kind == "least_squares":
            task = tiny_least_squares(eta=eta)
        else:
            task = synthetic_classification(40, 5, eta=eta, t_iter=1, seed=5)
        p = qgd_problem(task, np.zeros(5))
        message = re.escape(f"eta = {eta} overflowed the step objective")
        with pytest.raises(ContractViolation, match=message):
            p.evaluate_objective(np.full(5, 4))
        if p.objective_step_down is not None:
            with pytest.raises(ContractViolation, match=message):
                p.evaluate_step_down_batch(np.full((1, 5), 4))
        for strategy in ("ppso", "gcpso"):
            with pytest.raises(ContractViolation, match=message):
                train(task, strategy, SwarmConfig(n_pop=10, i_iter=5, restarts=1, seed=0))


@st.composite
def step_down_cases(draw):
    """A random small least-squares task, a random point z, and a batch
    of allocations with every coordinate's one-step-down target; at
    least one coordinate per row sits on the floor."""
    n = draw(st.integers(2, 6))
    m = n + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    task = QgdTask(
        kind="least_squares",
        features=rng.standard_normal((m, n)),
        targets=rng.standard_normal(m),
        eta=draw(st.sampled_from([0.001, 0.01, 0.05])),
        t_iter=1,
        budget_bits=draw(st.integers(1, 3)),
    )
    z = rng.standard_normal(n)
    allowed = np.asarray(task.allowed_values)
    mat = allowed[rng.integers(0, allowed.size, size=(draw(st.integers(1, 80)), n))]
    mat[np.arange(mat.shape[0]), rng.integers(0, n, size=mat.shape[0])] = allowed[0]
    lower = allowed[np.maximum(np.searchsorted(allowed, mat) - 1, 0)]
    return qgd_problem(task, z), gradient(task, z), mat, lower


class TestLeastSquaresStepDown:
    """The closed-form objective_step_down hook of least-squares qgd."""

    @settings(max_examples=60, deadline=None)
    @given(step_down_cases())
    def test_hook_matches_full_evaluation_of_candidate_rows(self, case):
        p, _, mat, lower = case
        r, n = mat.shape
        candidates = np.repeat(mat[:, None, :], n, axis=1)
        candidates[:, np.arange(n), np.arange(n)] = lower
        full = p.evaluate_objective_batch(candidates.reshape(r * n, n)).reshape(r, n)
        np.testing.assert_allclose(p.evaluate_step_down_batch(mat), full, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(step_down_cases())
    def test_hook_matches_the_method_without_it(self, case):
        # The hook only makes evaluate_step_down_batch faster: the
        # hookless method values the candidate rows through the objective.
        # At the floor each gives the row's value exactly, as valued in
        # its own batch; the batches differ in size, and a one-row batch
        # can round apart from a larger one, so the two agree to rounding.
        p, _, mat, _ = case
        hooked = p.evaluate_step_down_batch(mat)
        plain = replace(p, objective_step_down=None).evaluate_step_down_batch(mat)
        np.testing.assert_allclose(hooked, plain, rtol=1e-12, atol=0.0)
        floor = mat == p.allowed_values[0]
        rows = np.broadcast_to(p.evaluate_objective_batch(mat)[:, None], mat.shape)
        assert (hooked[floor] == rows[floor]).all()

    @settings(max_examples=60, deadline=None)
    @given(step_down_cases())
    def test_unchanged_step_gives_exactly_the_row_value(self, case):
        # Floor coordinates (lower == b) and coordinates whose quantized
        # gradient entry is the same one bit lower value exactly F(b),
        # so exact ties among them still go to the lowest index.
        p, g, mat, lower = case
        same = quantize_gradient(g, mat) == quantize_gradient(g, lower)
        assert same.any()
        values = p.evaluate_step_down_batch(mat)
        row_values = np.broadcast_to(p.evaluate_objective_batch(mat)[:, None], mat.shape)
        assert (values[same] == row_values[same]).all()
        b = mat[0]
        zero = same[0] & (b > p.allowed_values[0])
        stepped = p.evaluate_step_down_batch(b[None, :])[0]
        assert (stepped[zero] == p.evaluate_objective(b)).all()

    @settings(max_examples=30, deadline=None)
    @given(step_down_cases())
    def test_values_agree_across_batch_compositions(self, case):
        p, _, mat, _ = case
        whole = p.evaluate_step_down_batch(mat)
        for size in (1, 7, 64):
            parts = np.concatenate(
                [
                    p.evaluate_step_down_batch(mat[k : k + size])
                    for k in range(0, mat.shape[0], size)
                ]
            )
            np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=0.0)

    def test_bad_hook_output_reported_from_the_repair(self):
        task = tiny_least_squares()
        p = qgd_problem(task, np.zeros(5))

        def nan_hook(mat):
            out = p.objective_step_down(mat)
            out[0, 2] = math.nan
            return out

        # One bit over; rescaling rounds it back, so a greedy pass runs.
        over = np.array([[5, 4, 4, 4, 4]])
        with pytest.raises(ContractViolation, match="NaN for row 0, coordinate 2"):
            greedy_repair_batch(replace(p, objective_step_down=nan_hook), over)
        flat = replace(p, objective_step_down=lambda mat: np.zeros(mat.shape[0]))
        with pytest.raises(ContractViolation, match="objective_step_down returned shape"):
            greedy_repair_batch(flat, over)

    def test_only_least_squares_has_the_hook(self):
        assert qgd_problem(tiny_least_squares(), np.zeros(5)).objective_step_down is not None
        logistic = synthetic_classification(40, 4, t_iter=1, seed=5)
        assert qgd_problem(logistic, np.zeros(4)).objective_step_down is None

    def test_step_down_rows_count_the_hook_candidates(self):
        p = qgd_problem(tiny_least_squares(), np.zeros(5))
        cfg = SwarmConfig(n_pop=20, i_iter=10, restarts=1, seed=0)
        hooked = run_gcpso(p, cfg)
        # 24 over-budget rows of 5 coordinates over all repair passes
        assert hooked.step_down_rows == 24 * 5
        assert run_ppso(p, cfg).step_down_rows == 0
        # Without the hook the same candidates are objective rows.
        plain = run_gcpso(replace(p, objective_step_down=None), cfg)
        assert plain.step_down_rows == 0
        assert plain.objective_rows == hooked.objective_rows + hooked.step_down_rows
        np.testing.assert_array_equal(plain.best, hooked.best)

    def test_memoized_search_serves_step_downs_from_its_table(self):
        # 3 ** 3 = 27 allocations: the memo engages and the hook stays unused.
        task = tiny_least_squares(n_cols=3, budget_bits=1)
        p = qgd_problem(task, np.zeros(3))
        cfg = SwarmConfig(n_pop=10, i_iter=5, restarts=1, seed=0)
        memo = run_gcpso(p, cfg)
        plain = run_gcpso(replace(p, objective_step_down=None), cfg)
        assert memo.step_down_rows == 0
        assert 0 < memo.objective_rows == plain.objective_rows <= 3**3
        assert memo.best.tobytes() == plain.best.tobytes()
        assert memo.trace.tobytes() == plain.trace.tobytes()


@st.composite
def table_cases(draw):
    """A random small task of either kind, a random point z, and a batch
    of allocations with at least one width at lo and one at hi, plus
    every coordinate's one-step-down target."""
    n = draw(st.integers(1, 6))
    m = n + draw(st.integers(0, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["least_squares", "logistic"]))
    targets = rng.standard_normal(m)
    task = QgdTask(
        kind=kind,
        features=rng.standard_normal((m, n)),
        targets=targets if kind == "least_squares" else np.where(targets < 0, -1.0, 1.0),
        eta=draw(st.sampled_from([0.001, 0.01, 0.05, 0.5])),
        t_iter=1,
        budget_bits=draw(st.integers(1, 4)),
    )
    z = rng.standard_normal(n)
    allowed = np.asarray(task.allowed_values)
    mat = allowed[rng.integers(0, allowed.size, size=(draw(st.integers(1, 40)), n))]
    mat.flat[rng.integers(0, mat.size)] = allowed[0]
    mat.flat[rng.integers(0, mat.size)] = allowed[-1]
    lower = np.maximum(mat - 1, allowed[0])
    return task, z, mat, lower


class TestStepTable:
    """Each step reads its quantized gradient from one table per task,
    bit for bit what per-row quantization gave."""

    @settings(max_examples=80, deadline=None)
    @given(table_cases())
    def test_gathered_rows_equal_quantize_gradient(self, case):
        task, z, mat, lower = case
        g = gradient(task, z)
        for bits in (mat, lower, mat[:1]):
            assert task._quantized(g, bits).tobytes() == quantize_gradient(g, bits).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(table_cases())
    def test_objective_and_hook_equal_the_quantizing_formulas(self, case):
        # The formulas as they were before the table, quantizing per call.
        task, z, mat, lower = case
        g = gradient(task, z)
        p = qgd_problem(task, z)
        q = quantize_gradient(g, mat)
        if task.kind == "logistic":
            expected = _loss_batch(task, z[None, :] - task.eta * q)
            assert p.objective_batch(mat).tobytes() == expected.tobytes()
            return
        eta, gram = task.eta, task.features.T @ task.features
        gq = q @ gram
        values = loss(task, z) - eta * (q @ g) + 0.5 * (eta * eta) * (gq * q).sum(axis=1)
        d = quantize_gradient(g, lower) - q
        change = d * (eta * eta * (gq + 0.5 * np.diag(gram) * d) - eta * g)
        assert p.objective_batch(mat).tobytes() == values.tobytes()
        assert p.objective_step_down(mat).tobytes() == (values[:, None] + change).tobytes()

    @pytest.mark.parametrize("columns", [1, 4, 6])
    def test_wrong_column_count_rejected(self, columns):
        # One column would broadcast across every coordinate's table.
        p = qgd_problem(tiny_least_squares(), np.full(5, 0.3))
        mat = np.full((2, columns), 4)
        message = re.escape(f"bit matrix has shape (2, {columns}), expected (rows, 5)")
        for evaluate in (p.objective_batch, p.objective_step_down):
            with pytest.raises(ContractViolation, match=message):
                evaluate(mat)

    def test_displaced_step_rebuilds_the_same_values(self):
        task = tiny_least_squares()
        first, second = (qgd_problem(task, np.full(5, v)) for v in (0.3, -0.2))
        mat = np.array([[1, 9, 4, 4, 2], [4, 4, 4, 4, 4]])
        before = first.evaluate_objective_batch(mat)
        second.evaluate_objective_batch(mat)
        assert first.evaluate_objective_batch(mat).tobytes() == before.tobytes()

    def test_kept_step_problems_keep_no_table_alive(self, monkeypatch):
        # A run that keeps every step's problem (as a benchmark pass
        # does) must not keep every step's table: only the task's slot
        # holds one, for the last step it served.
        task = tiny_least_squares(t_iter=4)
        problems, tables = [], []

        def engine(problem, config):
            result = run_gcpso(problem, config)
            problems.append(problem)
            tables.append(weakref.ref(task._table_slot[1]))
            return result

        monkeypatch.setattr(qgd, "run_gcpso", engine)
        train(task, "gcpso", SwarmConfig(n_pop=10, i_iter=5, restarts=1, seed=0))
        gc.collect()
        assert len(problems) == 4
        alive = [ref() for ref in tables if ref() is not None]
        assert len(alive) == 1 and alive[0] is task._table_slot[1]
        assert all(p.allowed_values is task.allowed_values for p in problems)


class TestTrain:
    def test_uniform_descent_converges_on_noiseless_target(self):
        task = tiny_least_squares(t_iter=150, eta=0.005)
        result = train(task, "uniform")
        assert result.metric_trace.shape == (151,)
        assert loss(task, result.z) < 1e-6 * loss(task, np.zeros(5))
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
        assert result.metric_trace[-1] == np.linalg.norm(result.z - task.z_star)

    def test_metric_falls_back_to_loss(self):
        task = synthetic_classification(40, 4, eta=0.2, t_iter=3, seed=5)
        result = train(task, "uniform")
        assert result.metric_trace[0] == loss(task, np.zeros(4))
        assert result.metric_trace[-1] == loss(task, result.z)

    def test_swarm_strategies_respect_budget_and_reproduce(self):
        task = tiny_least_squares(t_iter=4)
        cfg = SwarmConfig(n_pop=20, i_iter=10, restarts=1, penalty_weight=1e5, seed=9)
        for strategy in ("ppso", "gcpso"):
            a = train(task, strategy, swarm_config=cfg)
            b = train(task, strategy, swarm_config=cfg)
            assert (a.allocations.sum(axis=1) <= 5 * 4).all()
            np.testing.assert_array_equal(a.allocations, b.allocations)
            np.testing.assert_allclose(a.metric_trace, b.metric_trace)

    def test_over_budget_step_raises(self):
        # A penalty this weak lets the penalized search settle over budget:
        # step 0's allocation would spend 7 bits against a budget of 5.
        task = gaussian_least_squares(n_rows=50, n_cols=5, eta=0.01, t_iter=6, budget_bits=1)
        cfg = SwarmConfig(n_pop=20, i_iter=10, restarts=1, penalty_weight=1e-9, seed=0)
        message = r"\[1, 1, 1, 3, 1\] consumes 7.0, over the budget of 5.0: penalty_weight 1e-09"
        with pytest.raises(InfeasibleBudgetError, match=message):
            train(task, "ppso", swarm_config=cfg)

    @pytest.mark.parametrize("eta", [1e308, 1e200])
    def test_overflowing_step_raises_naming_eta(self, eta):
        # Both are finite, so the task takes them. At 1e308 the first
        # step overflows z, at 1e200 its distance to z_star; the run
        # used to go on and report a nan metric.
        message = re.escape(f"eta = {eta} overflowed descent step 1")
        with pytest.raises(ContractViolation, match=message):
            train(tiny_least_squares(eta=eta, t_iter=3), "uniform")

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
        np.testing.assert_allclose(result.metric_trace, 0.0)
        np.testing.assert_array_equal(result.z, 0.0)
        assert result.allocations.shape == (4, 3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ContractViolation):
            train(tiny_least_squares(), "random")


class TestConstructors:
    def test_planted_target_is_exact_when_noiseless(self):
        task = gaussian_least_squares(n_rows=30, n_cols=6, seed=2)
        np.testing.assert_allclose(task.features @ task.z_star, task.targets)
        assert loss(task, task.z_star) == pytest.approx(0.0, abs=1e-20)

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
