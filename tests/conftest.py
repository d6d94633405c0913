"""Shared helpers for the test suite."""

from pathlib import Path

import numpy as np

from bitalloc.problem import AllocationProblem

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
