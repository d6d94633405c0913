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
(ii) often still behave well in practice, including the fixed schedule
the search engines here follow (check_schedule). order2_stable_from
gives the other side, Poli's (2009) order-2 stability region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ContractViolation, require_int
from .swarm import schedule_hyperparams


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


def check_schedule(iterations: int) -> ConvergenceReport:
    """Worst-case report along the engines' fixed schedule.

    The stability argument treats (w, c) as constants while the engines
    vary them per iteration; this helper reconciles the two views by
    evaluating the check pointwise at every iteration of an
    iterations-long search, taken from the engines' own
    schedule_hyperparams, and returning the earliest report with the
    smallest margin threshold - lambda_max(P). c1 and c2 move in opposite
    directions at equal rates, so c stays 1.5 while w sweeps from near
    0.9 down to 0.4.
    """
    iterations = require_int(iterations, "iterations", 1)
    schedule = (schedule_hyperparams(it, iterations) for it in range(1, iterations + 1))
    reports = (check_convergence_conditions(*params) for params in schedule)
    return min(reports, key=lambda report: report.threshold - report.lambda_max_P)


def order2_stable_from(iterations: int) -> int:
    """First iteration of an iterations-long run of the engines'
    schedule, from schedule_hyperparams, in the order-2 stability region
    c1 + c2 < 24 (1 - w^2) / (7 - 5 w), |w| < 1 (Poli 2009, IEEE TEC
    13(4)). w falls while c1 + c2 stays 3, so it then holds to the end:
    from iteration 24 of 100. The last iteration always qualifies, since
    there w = 0.4 and 3 < 24 (1 - 0.16) / 5, about 4.03."""
    iterations = require_int(iterations, "iterations", 1)
    for it in range(1, iterations):
        w, c1, c2 = schedule_hyperparams(it, iterations)
        if abs(w) < 1 and c1 + c2 < 24 * (1 - w * w) / (7 - 5 * w):
            return it
    return iterations
