"""Order-2 stability check for the swarm hyperparameters.

The mean dynamics of one particle coordinate under inertia w and mean
attraction strength c = (c1 + c2) / 2 reduce to the linear system
x' = A x with

    A = [[w - 1, -c],
         [w,     -c]].

We solve the Lyapunov equation P A + A^T P = -I in closed form and
declare the parameter triple guaranteed-stable when

    (i)  0 < w < c + 1, and
    (ii) lambda_max(P) < 1 / (2 sqrt(c^2 + w^2)).

Condition (ii) bounds the perturbation the stochastic accelerations may
inject before the quadratic Lyapunov argument breaks down, so the pair
of conditions is sufficient rather than necessary: parameters that fail
(ii) often still behave well in practice, including the defaults used
by the search engines here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ContractViolation
from .swarm import SwarmConfig, schedule_hyperparams


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outcome of the stability check for one hyperparameter setting."""

    w: float
    c: float
    P: np.ndarray
    lambda_max_P: float
    threshold: float
    condition_1: bool
    condition_2: bool

    @property
    def guaranteed(self) -> bool:
        return self.condition_1 and self.condition_2


def state_matrix(w: float, c: float) -> np.ndarray:
    """Mean-dynamics update matrix for inertia w and attraction c."""
    return np.array([[w - 1.0, -c], [w, -c]], dtype=float)


def lyapunov_solution(w: float, c: float) -> np.ndarray:
    """Closed-form symmetric P with P A + A^T P = -I.

    Writing P = [[p11, p12], [p12, p22]] and expanding the Lyapunov
    equation gives three linear equations whose solution is rational in
    (w, c) with common denominator 2 c (1 + c - w).
    """
    den = 2.0 * c * (1.0 + c - w)
    if den == 0.0:
        raise ContractViolation(
            f"Lyapunov solve is singular at w={w}, c={c}: need c != 0 and 1 + c - w != 0"
        )
    p11 = (c + c * c + w * w) / den
    p12 = (-c * c + w - w * w) / den
    p22 = (1.0 + c + c * c - 2.0 * w + w * w) / den
    return np.array([[p11, p12], [p12, p22]], dtype=float)


def _sym2_lambda_max(P: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric 2x2 matrix, in closed form."""
    a, b, d = P[0, 0], P[0, 1], P[1, 1]
    mean = 0.5 * (a + d)
    radius = math.hypot(0.5 * (a - d), b)
    return mean + radius


def check_convergence_conditions(w: float, c1: float, c2: float) -> ConvergenceReport:
    """Evaluate both sufficient stability conditions for (w, c1, c2).

    Only the mean c = (c1 + c2) / 2 enters the check, so swapping c1
    and c2 leaves the report unchanged.
    """
    for name, value in (("w", w), ("c1", c1), ("c2", c2)):
        if not math.isfinite(value):
            raise ContractViolation(f"{name} must be finite, got {value}")
    c = 0.5 * (c1 + c2)
    if not c > 0:
        raise ContractViolation(f"mean attraction c = (c1+c2)/2 must be > 0, got {c}")
    P = lyapunov_solution(w, c)
    lam = _sym2_lambda_max(P)
    threshold = 1.0 / (2.0 * math.sqrt(c * c + w * w))
    return ConvergenceReport(
        w=float(w),
        c=float(c),
        P=P,
        lambda_max_P=float(lam),
        threshold=float(threshold),
        condition_1=bool(0.0 < w < c + 1.0),
        condition_2=bool(lam < threshold),
    )


def check_schedule(
    w_min: float,
    w_max: float,
    c1_min: float,
    c1_max: float,
    c2_min: float,
    c2_max: float,
    iterations: int,
) -> ConvergenceReport:
    """Worst-case report along the linear hyperparameter schedules.

    The stability argument treats (w, c) as constants while the engines
    vary them per iteration; this helper reconciles the two views by
    evaluating the check pointwise at every scheduled iteration, taken
    from the engines' own schedule_hyperparams, and returning the report
    with the smallest margin threshold - lambda_max(P). The bounds must
    form a valid SwarmConfig schedule. With the default schedules c1 and
    c2 move in opposite directions at equal rates, so c stays constant
    while w sweeps from near w_max down to w_min.
    """
    if iterations < 1:
        raise ContractViolation(f"iterations must be >= 1, got {iterations}")
    config = SwarmConfig(
        i_iter=iterations,
        w_min=w_min,
        w_max=w_max,
        c1_min=c1_min,
        c1_max=c1_max,
        c2_min=c2_min,
        c2_max=c2_max,
    )
    worst: ConvergenceReport | None = None
    worst_margin = np.inf
    for it in range(1, iterations + 1):
        report = check_convergence_conditions(*schedule_hyperparams(config, it))
        margin = report.threshold - report.lambda_max_P
        if margin < worst_margin:
            worst_margin = margin
            worst = report
    assert worst is not None
    return worst
