"""End-to-end acceptance gate, one test per shipping criterion.

Each test prints as a single pass/fail line under pytest -v. Budgets,
seeds and tolerances are pinned; loosening any of them is a release
decision, not a test fix.
"""

import math
import time

import numpy as np
import pytest
import scipy.optimize

from bitalloc import cli
from bitalloc.convergence import check_convergence_conditions, lyapunov_solution, state_matrix
from bitalloc.fir import (
    benchmark_spec,
    fir_problem,
    lc_fixed_alloc,
    lc_float_alloc,
    lc_float_map,
    load_coefficients,
)
from bitalloc.problem import brute_force_optimum
from bitalloc.qgd import (
    gaussian_least_squares,
    gradient,
    loss,
    synthetic_classification,
    train,
)
from bitalloc.quantizers import quantize_fixed_bits, quantize_float_bits
from bitalloc.receiver import (
    ChannelRealization,
    SystemConfig,
    beta_of_bits,
    receiver_problem,
    sum_rate,
    unquantized_reference,
)
from bitalloc.swarm import SwarmConfig, run_gcpso, run_ppso

from conftest import FIXTURE_DIR, toy_fir_problem, toy_qgd_problem, toy_receiver_problem

FIXED_BUDGETS = {"a": 8, "b": 9, "c": 8, "d": 8}
FLOAT_BUDGETS = {"a": 4, "b": 5, "c": 4, "d": 4}


def _oracle_match_count(make_problem, count=20):
    matches = 0
    for i in range(count):
        problem = make_problem(i)
        _, oracle_value = brute_force_optimum(problem)
        result = run_gcpso(problem, SwarmConfig(seed=i))
        uniform = np.full(problem.dimension, problem.budget_bits, dtype=np.int64)
        assert result.best_cost <= problem.evaluate_objective(uniform) + 1e-12
        if result.best_cost <= oracle_value + 1e-9 * max(1.0, abs(oracle_value)):
            matches += 1
    return matches


def test_criterion_01_repair_engine_matches_oracle_on_toys():
    t0 = time.perf_counter()
    for family in (toy_fir_problem, toy_receiver_problem, toy_qgd_problem):
        assert _oracle_match_count(family) >= 18, family.__name__
    assert time.perf_counter() - t0 < 120.0


def test_criterion_02_uniform_closed_form_equals_naive_on_fixtures():
    for letter in "abcd":
        for n_taps in (35, 45):
            coeffs = load_coefficients(FIXTURE_DIR / f"{letter}{n_taps}.txt")
            spec = benchmark_spec(letter, n_taps)
            budget = FIXED_BUDGETS[letter]
            alloc = lc_fixed_alloc(n_taps, budget)
            naive = np.full((n_taps + 1) // 2, budget, dtype=np.int64)
            np.testing.assert_array_equal(alloc, naive)
            problem = fir_problem(spec, coeffs, "fixed", budget)
            assert problem.evaluate_objective(alloc) == problem.evaluate_objective(naive)


def test_criterion_03_relaxed_mantissa_allocation_and_mapping():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0x1C03)
    demotion_trials = 0
    for _ in range(50):
        n_taps = int(rng.choice([5, 7, 9, 11, 13, 15, 17, 19, 21]))
        half_n = (n_taps + 1) // 2
        mags = np.exp2(rng.uniform(-6.0, -0.2, size=half_n))
        half = rng.choice([-1.0, 1.0], size=half_n) * mags
        h = np.concatenate([half, half[-2::-1]])
        log_mag = np.log2(np.abs(h))
        bound = 1 + math.ceil(log_mag.mean() - log_mag.min())
        m_bar = bound + int(rng.integers(0, 4))

        relaxed = lc_float_alloc(h, m_bar)
        # The closed form must match a generic equality-constrained
        # minimizer of the relaxed MSQE to 1e-6 in objective value.
        c_full = (math.pi / 3.0) * h**2
        scale = float((c_full * np.exp2(-2.0 * float(m_bar))).sum())

        def objective(m):
            return float((c_full * np.exp2(-2.0 * m)).sum()) / scale

        def objective_grad(m):
            return -2.0 * math.log(2.0) * c_full * np.exp2(-2.0 * m) / scale

        res = scipy.optimize.minimize(
            objective,
            np.full(n_taps, float(m_bar)),
            jac=objective_grad,
            method="SLSQP",
            constraints=[{
                "type": "eq",
                "fun": lambda m: m.sum() - n_taps * m_bar,
                "jac": lambda m: np.ones_like(m),
            }],
            options={"maxiter": 1000, "ftol": 1e-14},
        )
        assert res.success, res.message
        assert objective(relaxed) == pytest.approx(res.fun, rel=1e-6)

        # Integer mapping: budget feasible, at least one mantissa bit,
        # and the demoted set is an ascending prefix of the trade-off
        # ordering (no kept coordinate demotes cheaper than one taken).
        mapped = lc_float_map(relaxed, h, m_bar)
        weights = np.full(half_n, 2.0)
        weights[-1] = 1.0
        assert weights @ mapped <= n_taps * m_bar + 1e-9
        assert (mapped >= 1).all()

        mt = relaxed[:half_n]
        floors = np.floor(mt)
        fractional = mt != floors
        c_half = (math.pi / 3.0) * half**2
        c_half[-1] *= 0.5
        with np.errstate(invalid="ignore"):
            K = np.where(
                fractional,
                (np.exp2(-2.0 * floors) - np.exp2(-2.0 * mt))
                * c_half
                / np.where(fractional, mt - floors, 1.0),
                np.inf,
            )
        demoted = fractional & (mapped == floors.astype(np.int64))
        kept = fractional & (mapped > floors.astype(np.int64))
        if demoted.any() and kept.any():
            assert K[demoted].max() <= K[kept].min() + 1e-15
            demotion_trials += 1
    assert demotion_trials >= 10
    assert time.perf_counter() - t0 < 60.0


def test_criterion_04_benchmark_orderings_and_published_anchors():
    swarm_cfg = SwarmConfig(n_pop=100, restarts=10, seed=0)
    slack = 1e-9
    naive_fixed = {}
    for letter in "abcd":
        coeffs = load_coefficients(FIXTURE_DIR / f"{letter}35.txt")
        spec = benchmark_spec(letter, 35)

        budget = FIXED_BUDGETS[letter]
        p_fix = fir_problem(spec, coeffs, "fixed", budget)
        naive = p_fix.evaluate_objective(np.full(18, budget))
        naive_fixed[letter] = naive
        pp = run_ppso(p_fix, swarm_cfg)
        gc = run_gcpso(p_fix, swarm_cfg)
        assert p_fix.is_feasible(pp.best), letter
        assert gc.best_cost <= pp.best_cost + slack, letter
        assert pp.best_cost <= naive + slack, letter

        m_bar = FLOAT_BUDGETS[letter]
        p_flt = fir_problem(spec, coeffs, "float", m_bar, exp_bits=5)
        naive_flt = p_flt.evaluate_objective(np.full(18, m_bar))
        lc_bits = lc_float_map(lc_float_alloc(coeffs.h, m_bar), coeffs.h, m_bar)
        lc_err = p_flt.evaluate_objective(lc_bits)
        pp_f = run_ppso(p_flt, swarm_cfg)
        gc_f = run_gcpso(p_flt, swarm_cfg)
        assert p_flt.is_feasible(pp_f.best), letter
        assert gc_f.best_cost <= pp_f.best_cost + slack, letter
        assert pp_f.best_cost <= lc_err + slack, letter
        assert lc_err <= naive_flt + slack, letter

    # The shipped fixtures follow the same equiripple design recipe as
    # the published table, so the uniform-rounding column reproduces.
    assert naive_fixed["a"] == pytest.approx(0.03266, rel=0.02)
    assert naive_fixed["c"] == pytest.approx(0.04687, rel=0.02)


def test_criterion_05_quantizer_error_model_variances():
    rng = np.random.default_rng(2024)
    x = rng.uniform(-1.0, 1.0, size=1_000_000)
    for b in (6, 8):
        err = x - quantize_fixed_bits(x, b)
        assert abs(err.var() / (2.0 ** (-2 * b) / 12.0) - 1.0) < 0.05

    rng = np.random.default_rng(2025)
    y = np.exp2(rng.uniform(-16.0, 16.0, size=1_000_000))
    for m in (5, 7):
        q, over = quantize_float_bits(y, 7, m)
        assert not over.any()
        rel = (q - y) / y
        assert abs(rel.var() / (2.0 ** (-2 * m) / 6.0) - 1.0) < 0.10


def test_criterion_06_distortion_table_and_hand_rate():
    assert beta_of_bits(1) == 0.3634
    assert beta_of_bits(2) == 0.1175
    assert beta_of_bits(3) == 0.03454
    assert beta_of_bits(4) == 0.009497
    assert beta_of_bits(5) == 0.002499
    for b in (6, 7, 9):
        assert beta_of_bits(b) == pytest.approx(
            (math.pi * math.sqrt(3.0) / 2.0) * 2.0 ** (-2 * b), rel=1e-15
        )

    g1, g2 = 0.3 - 0.8j, 1.1 + 0.2j
    channel = ChannelRealization(G=np.array([[g1], [g2]]), gamma=np.array([1.0]))
    p_u = 2.5
    beta = [0.3634, 0.009497]
    alpha = [1.0 - bv for bv in beta]
    mags = [abs(g1) ** 2, abs(g2) ** 2]
    signal = p_u * sum(a * m for a, m in zip(alpha, mags)) ** 2
    noise = sum(
        m * (a * a + a * bv * (p_u * m + 1.0))
        for a, bv, m in zip(alpha, beta, mags)
    )
    expected = math.log2(1.0 + signal / noise)
    assert sum_rate(channel, [1, 4], p_u) == pytest.approx(expected, abs=1e-12)


def test_criterion_07_receiver_ordering_at_desk_scale():
    t0 = time.perf_counter()
    swarm_cfg = SwarmConfig(n_pop=80, i_iter=50, restarts=3, seed=42)
    for p_u_db in (0.0, 10.0, 20.0):
        cfg = SystemConfig(
            m_antennas=16,
            k_users=4,
            p_u=10.0 ** (p_u_db / 10.0),
            budget_bits=1,
            mc_channels=50,
            seed=42,
        )
        problem = receiver_problem(cfg)
        uniform_rate = -problem.evaluate_objective(np.full(16, 1))
        pp = run_ppso(problem, swarm_cfg)
        gc = run_gcpso(problem, swarm_cfg)
        assert problem.is_feasible(pp.best), p_u_db
        pp_rate = -pp.best_cost
        gc_rate = -gc.best_cost
        assert gc_rate >= pp_rate - 1e-9, p_u_db
        assert pp_rate >= uniform_rate - 1e-9, p_u_db
        reference = unquantized_reference(cfg)
        assert max(gc_rate, pp_rate, uniform_rate) < reference, p_u_db
    assert time.perf_counter() - t0 < 600.0


def test_criterion_08_quantized_descent_beats_uniform_and_gradients_check():
    t0 = time.perf_counter()
    task = gaussian_least_squares(
        n_rows=200, n_cols=20, eta=0.001, t_iter=200, budget_bits=4, seed=0
    )
    uniform = train(task, "uniform")
    optimized = train(task, "gcpso")
    assert optimized.metric_trace[-1] <= uniform.metric_trace[-1]

    for check_task in (task, synthetic_classification(60, 6, seed=4)):
        rng = np.random.default_rng(17)
        z = rng.standard_normal(check_task.dimension)
        g = gradient(check_task, z)
        eps = 1e-6
        for j in range(check_task.dimension):
            zp, zm = z.copy(), z.copy()
            zp[j] += eps
            zm[j] -= eps
            fd = (loss(check_task, zp) - loss(check_task, zm)) / (2.0 * eps)
            assert abs(g[j] - fd) <= 1e-6 * max(1.0, abs(g[j]))
    assert time.perf_counter() - t0 < 300.0


def test_criterion_09_stability_checker_certificate():
    for w in (0.1, 0.4, 0.6, 0.9, 1.2):
        for c in (0.25, 0.5, 1.0, 1.5, 2.5):
            P = lyapunov_solution(w, c)
            A = state_matrix(w, c)
            assert np.abs(P @ A + A.T @ P + np.eye(2)).max() <= 1e-12
    report = check_convergence_conditions(0.6, 1.0, 1.0)
    assert report.lambda_max_P == pytest.approx(1.081, abs=1e-3)
    assert report.condition_1 is True
    assert report.guaranteed is False


FIR_DETERMINISM_CONFIG = """\
[experiment]
application = fir
strategies = naive, gcpso
seed = 3
output_dir = out
json_summary = true

[fir]
coefficients = {coeffs}
benchmark = a
kind = fixed
budget_bits = 3

[swarm]
n_pop = 30
i_iter = 20
restarts = 2
"""

RECEIVER_DETERMINISM_CONFIG = """\
[experiment]
application = receiver
strategies = naive, ppso
seed = 11
output_dir = out

[receiver]
m_antennas = 4
k_users = 2
mc_channels = 5
budget_bits = 1
p_u_db = 0, 10

[swarm]
n_pop = 20
i_iter = 15
restarts = 2
"""


def _run_twice_and_collect(tmp_path, text):
    tmp_path.mkdir(exist_ok=True)
    config = tmp_path / "experiment.ini"
    config.write_text(text)
    assert cli.main(["run", str(config)]) == 0
    out_dir = tmp_path / "out"
    first = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert cli.main(["run", str(config)]) == 0
    second = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return first, second


def test_criterion_10_experiment_reruns_are_byte_identical(tmp_path):
    toy = FIR_DETERMINISM_CONFIG.format(coeffs=FIXTURE_DIR / "toy7.txt")
    first, second = _run_twice_and_collect(tmp_path / "fir", toy)
    assert first and first == second
    assert "results.csv" in first and "trace_gcpso.csv" in first

    first, second = _run_twice_and_collect(
        tmp_path / "receiver", RECEIVER_DETERMINISM_CONFIG
    )
    assert first and first == second
    assert "trace_ppso_pu10dB.csv" in first
