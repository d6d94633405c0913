"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np

from bitalloc.fir import CoefficientSet, FilterSpec, fir_problem
from bitalloc.problem import AllocationProblem
from bitalloc.qgd import gaussian_least_squares, qgd_problem
from bitalloc.receiver import SystemConfig, receiver_problem

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def weighted_msqe_problem(
    weights,
    allowed=tuple(range(1, 8)),
    budget=None,
    budget_bits=3,
) -> AllocationProblem:
    """Separable toy: F(b) = sum_n w_n 2^(-2 b_n), C(b) = sum_n b_n.

    The exact optimum is cheap to brute-force and the per-coordinate
    sensitivities have a closed form, which makes this the reference
    instance for engine and repair tests.
    """
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    if budget is None:
        budget = float(n * budget_bits)

    def objective_batch(mat):
        return (weights[None, :] * np.exp2(-2.0 * np.asarray(mat, dtype=float))).sum(axis=1)

    return AllocationProblem(
        dimension=n,
        allowed_values=tuple(allowed),
        budget_bits=budget_bits,
        budget=float(budget),
        objective_batch=objective_batch,
        consumption_batch=lambda mat: np.asarray(mat, dtype=float).sum(axis=1),
        name="msqe-toy",
    )


def assert_batch_composition_agrees(problem: AllocationProblem, n_rows=300, seed=0):
    """A row's objective value depends on its batch only to rounding:
    n_rows random allocations evaluated in batches of 1, 7 and 64 agree
    with one batch of all of them to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    allowed = np.asarray(problem.allowed_values)
    mat = allowed[rng.integers(0, allowed.size, size=(n_rows, problem.dimension))]
    whole = problem.evaluate_objective_batch(mat)
    for size in (1, 7, 64):
        parts = np.concatenate(
            [problem.evaluate_objective_batch(mat[k : k + size]) for k in range(0, n_rows, size)]
        )
        np.testing.assert_allclose(parts, whole, rtol=1e-12, atol=0.0)


# The criterion-01 toy families, toy i of each; perfbench/workloads.py
# keeps a copy.


def toy_fir_problem(
    i: int, n_taps: int = 0, kind: str = "", budget_bits: int = 2
) -> AllocationProblem:
    """Toy i, or with the tap count, kind or budget given its recipe at that size."""
    n_taps = n_taps or (5, 7, 9)[i % 3]
    half_n = (n_taps + 1) // 2
    rng = np.random.default_rng([0x70F1, i])
    mags = np.exp2(rng.uniform(-5.0, -0.2, size=half_n))
    half = rng.choice([-1.0, 1.0], size=half_n) * mags
    coeffs = CoefficientSet(h=np.concatenate([half, half[-2::-1]]))
    spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], n_taps)
    kind = kind or ("fixed" if i % 2 == 0 else "float")
    return fir_problem(spec, coeffs, kind, budget_bits=budget_bits, exp_bits=5)


def toy_receiver_problem(i: int) -> AllocationProblem:
    cfg = SystemConfig(
        m_antennas=3 + (i % 3),
        k_users=1 + (i % 2),
        budget_bits=1,
        mc_channels=10,
        seed=i,
    )
    return receiver_problem(cfg)


def toy_qgd_problem(i: int) -> AllocationProblem:
    task = gaussian_least_squares(
        n_rows=30, n_cols=3 + (i % 3), eta=0.001, t_iter=1, budget_bits=2, seed=i
    )
    return qgd_problem(task, np.zeros(task.dimension))
