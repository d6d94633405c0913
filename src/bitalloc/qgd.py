"""Quantized gradient descent application.

One worker sends its full gradient to a server each iteration, but may
spend only an average of budget_bits per coordinate to encode it. The
gradient is normalized by its 2-norm, each coordinate is quantized by
the signed fixed-point quantizer with its allocated bit count, and the
descent step uses the dequantized vector. The allocation can be the
uniform baseline or re-optimized every iteration by one of the swarm
engines, minimizing the post-step loss directly.

Two tasks are built in: linear least squares (synthetic Gaussian
design, known target) and binary logistic regression with a 1/(2m)
ridge term (synthetic two-Gaussian data or a sparse text dataset).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .problem import AllocationProblem, ContractViolation, read_text
from .quantizers import quantize_fixed_bits
from .swarm import SwarmConfig, run_gcpso, run_ppso

_DATA_DOMAIN = 0xDA7A

# Per-step swarm effort: a fraction of the standalone defaults, since
# the engine runs once per descent iteration.
DEFAULT_STEP_SWARM = SwarmConfig(
    n_pop=60, i_iter=30, restarts=1, penalty_weight=1e5
)


@dataclass(frozen=True, eq=False)
class QgdTask:
    """One training problem the quantized descent loop can run on."""

    kind: str
    features: np.ndarray
    targets: np.ndarray
    eta: float
    t_iter: int
    budget_bits: int
    z_star: Optional[np.ndarray] = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("least_squares", "logistic"):
            raise ContractViolation(
                f"unknown task kind {self.kind!r}; use 'least_squares' or 'logistic'"
            )
        features = np.asarray(self.features, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if features.ndim != 2 or targets.shape != (features.shape[0],):
            raise ContractViolation(
                f"features {features.shape} and targets {targets.shape} do not line up"
            )
        if self.kind == "least_squares" and features.shape[0] < features.shape[1]:
            raise ContractViolation("least squares requires at least as many rows as columns")
        if self.kind == "logistic" and not np.isin(targets, (-1.0, 1.0)).all():
            raise ContractViolation("logistic labels must be -1 or +1")
        if not 0 < self.eta < np.inf:
            raise ContractViolation(f"step size must be positive and finite, got {self.eta}")
        if self.t_iter < 1 or self.budget_bits < 1:
            raise ContractViolation("t_iter and budget_bits must be >= 1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        if self.z_star is not None:
            z_star = np.asarray(self.z_star, dtype=float)
            if z_star.shape != (features.shape[1],):
                raise ContractViolation(f"z_star has shape {z_star.shape}, expected ({features.shape[1]},)")
            object.__setattr__(self, "z_star", z_star)

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def allowed_values(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.budget_bits + 2))

    @cached_property
    def _gram(self) -> np.ndarray:
        """features^T features, shared by every step's least-squares problem."""
        return self.features.T @ self.features


def loss(task: QgdTask, z) -> float:
    """Training objective at parameters z."""
    return float(_loss_batch(task, np.asarray(z, dtype=float)[None, :])[0])


def _loss_batch(task: QgdTask, zs: np.ndarray) -> np.ndarray:
    """Training objective per row of a (rows, D) parameter matrix."""
    if task.kind == "least_squares":
        r = task.targets[None, :] - zs @ task.features.T
        return 0.5 * (r * r).sum(axis=1)
    m = task.features.shape[0]
    scores = task.targets[None, :] * (zs @ task.features.T)
    return np.logaddexp(0.0, -scores).mean(axis=1) + 0.5 * (zs * zs).sum(axis=1) / m


def gradient(task: QgdTask, z) -> np.ndarray:
    """Analytic gradient of loss() at z."""
    z = np.asarray(z, dtype=float)
    if task.kind == "least_squares":
        return task.features.T @ (task.features @ z - task.targets)
    m = task.features.shape[0]
    scores = task.targets * (task.features @ z)
    # sigmoid(-s), computed stably for both signs of s
    sig = np.where(scores >= 0, np.exp(-np.abs(scores)) / (1 + np.exp(-np.abs(scores))),
                   1.0 / (1.0 + np.exp(-np.abs(scores))))
    return -(task.features.T @ (task.targets * sig)) / m + z / m


def quantize_gradient(g, bits) -> np.ndarray:
    """Normalize by the 2-norm, quantize per coordinate, denormalize.

    Every normalized coordinate lies in [-1, 1], inside the fixed-point
    quantizer's domain; the coordinate equal to the norm itself (when
    the gradient has a single nonzero entry) saturates to 1 - 2^(-b),
    a documented bias of the scheme. A zero gradient passes through as
    zeros. bits may also be a (rows, D) matrix, one allocation per row,
    and the result has bits' shape.
    """
    g = np.asarray(g, dtype=float)
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-1:] != g.shape:
        raise ContractViolation(f"bit vector has shape {bits.shape}, expected {g.shape}")
    norm = float(np.linalg.norm(g))
    if norm == 0.0:
        return np.zeros(bits.shape)
    return norm * quantize_fixed_bits(g / norm, bits)


class _LeastSquaresStep:
    """Closed form of the post-step least-squares loss and its step downs.

    With residual r = y - A z, gradient g = -A^T r and the dequantized
    step q(b) = quantize_gradient(g, b), the loss after the step is

        F(b) = L0 - eta g.q + eta^2/2 q^T G q,   G = A^T A,  L0 = loss(z),

    which costs O(D^2) per row instead of a pass over the M samples.
    Changing coordinate j of q by d adds
    d (eta^2 (G q)_j + eta^2/2 G_jj d - eta g_j), so step_down values
    every one-coordinate change of a row in O(D) each, and a change
    that leaves q_j unchanged (d = 0) adds exactly zero.
    """

    # A descent run can keep every step's problem alive, so an instance
    # holds only g and one number of its own; the Gram matrix is the
    # task's.
    __slots__ = ("task", "g", "l0")

    def __init__(self, task: QgdTask, z: np.ndarray, g: np.ndarray):
        self.task = task
        self.g = g
        self.l0 = loss(task, z)

    def _values(self, q: np.ndarray, gq: np.ndarray) -> np.ndarray:
        eta = self.task.eta
        return self.l0 - eta * (q @ self.g) + 0.5 * (eta * eta) * (gq * q).sum(axis=1)

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        """F of every row: the problem's objective_batch."""
        q = quantize_gradient(self.g, mat)
        return self._values(q, q @ self.task._gram)

    def step_down(self, mat: np.ndarray, lower: np.ndarray) -> np.ndarray:
        q = quantize_gradient(self.g, mat)
        gq = q @ self.task._gram
        d = quantize_gradient(self.g, lower) - q
        eta = self.task.eta
        change = d * (eta * eta * (gq + 0.5 * np.diag(self.task._gram) * d) - eta * self.g)
        return self._values(q, gq)[:, None] + change


def _bit_sum(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=float).sum(axis=1)


def qgd_problem(task: QgdTask, z) -> AllocationProblem:
    """Next-step loss minimization over the per-coordinate bit split.

    F(b) = loss(z - eta * quantize_gradient(grad, b)) with the gradient
    taken at the current z; consumption is the plain bit sum with
    budget dimension * budget_bits. Least squares evaluates F in the
    closed form of _LeastSquaresStep, which also supplies the
    objective_step_down hook; logistic regression evaluates the loss
    directly and has no hook.
    """
    z = np.asarray(z, dtype=float)
    g = gradient(task, z)
    if float(np.linalg.norm(g)) == 0.0:
        raise ContractViolation("gradient is zero; descent has converged")

    if task.kind == "least_squares":
        objective_batch = _LeastSquaresStep(task, z, g)
        step_down = objective_batch.step_down
    else:

        def objective_batch(mat: np.ndarray) -> np.ndarray:
            return _loss_batch(task, z[None, :] - task.eta * quantize_gradient(g, mat))

        step_down = None

    return AllocationProblem(
        dimension=task.dimension,
        allowed_values=task.allowed_values,
        budget_bits=task.budget_bits,
        budget=float(task.dimension * task.budget_bits),
        objective_batch=objective_batch,
        consumption_batch=_bit_sum,
        name=f"qgd-{task.kind}",
        objective_step_down=step_down,
    )


@dataclass(frozen=True, eq=False)
class TrainResult:
    """Trajectory of one quantized-descent run.

    metric_trace[t] is ||z_t - z_star|| when the task knows its target
    and loss(z_t) otherwise, recorded at t = 0..t_iter. allocations
    holds the bit vector chosen at each step; once the gradient
    vanishes, the remaining entries of both repeat the last ones.
    """

    z: np.ndarray
    metric_trace: np.ndarray
    allocations: np.ndarray


def _metric(task: QgdTask, z: np.ndarray) -> float:
    if task.z_star is not None:
        return float(np.linalg.norm(z - task.z_star))
    return loss(task, z)


def train(
    task: QgdTask,
    strategy: str = "uniform",
    swarm_config: SwarmConfig | None = None,
) -> TrainResult:
    """Run t_iter quantized descent steps under an allocation strategy.

    Strategies: 'uniform' spends budget_bits on every coordinate;
    'ppso' / 'gcpso' re-solve the per-step allocation problem with the
    corresponding engine, seeded per step so reruns are reproducible.
    A step that overflows z or its metric raises ContractViolation.
    """
    if strategy not in ("uniform", "ppso", "gcpso"):
        raise ContractViolation(
            f"unknown strategy {strategy!r}; use 'uniform', 'ppso' or 'gcpso'"
        )
    base_cfg = swarm_config if swarm_config is not None else DEFAULT_STEP_SWARM
    if swarm_config is None:
        base_cfg = replace(base_cfg, seed=task.seed)

    d = task.dimension
    z = np.zeros(d)
    metric_trace = np.empty(task.t_iter + 1)
    metric_trace[0] = _metric(task, z)
    allocations = np.full((task.t_iter, d), task.budget_bits, dtype=np.int64)

    for t in range(task.t_iter):
        g = gradient(task, z)
        if not np.any(g):
            metric_trace[t + 1 :] = metric_trace[t]
            allocations[t:] = allocations[t - 1] if t else task.budget_bits
            break
        if strategy == "uniform":
            bits = np.full(d, task.budget_bits, dtype=np.int64)
        else:
            problem = qgd_problem(task, z)
            cfg = replace(base_cfg, seed=base_cfg.seed + t)
            bits = (run_gcpso if strategy == "gcpso" else run_ppso)(problem, cfg).best
        allocations[t] = bits
        with np.errstate(over="ignore", invalid="ignore"):
            z = z - task.eta * quantize_gradient(g, bits)
            metric_trace[t + 1] = _metric(task, z)
        if not (np.isfinite(z).all() and np.isfinite(metric_trace[t + 1])):
            raise ContractViolation(f"eta = {task.eta} overflowed descent step {t + 1}")

    return TrainResult(z=z, metric_trace=metric_trace, allocations=allocations)


# -- task constructors ---------------------------------------------------------


def gaussian_least_squares(
    n_rows: int = 200,
    n_cols: int = 20,
    eta: float = 0.001,
    t_iter: int = 200,
    budget_bits: int = 4,
    seed: int = 0,
) -> QgdTask:
    """Random Gaussian design with a known planted target, noiseless."""
    rng = np.random.default_rng([_DATA_DOMAIN, seed])
    A = rng.standard_normal((n_rows, n_cols))
    z_star = rng.standard_normal(n_cols)
    return QgdTask(
        kind="least_squares",
        features=A,
        targets=A @ z_star,
        eta=eta,
        t_iter=t_iter,
        budget_bits=budget_bits,
        z_star=z_star,
        seed=seed,
    )


def synthetic_classification(
    n_samples: int = 400,
    n_features: int = 30,
    eta: float = 0.05,
    t_iter: int = 100,
    budget_bits: int = 4,
    seed: int = 0,
) -> QgdTask:
    """Two unit-variance Gaussian clouds with opposite labels, centred at
    -u and +u for a random unit vector u; linearly separable-ish."""
    rng = np.random.default_rng([_DATA_DOMAIN, seed, 1])
    direction = rng.standard_normal(n_features)
    direction /= np.linalg.norm(direction)
    labels = np.where(rng.random(n_samples) < 0.5, -1.0, 1.0)
    features = rng.standard_normal((n_samples, n_features))
    features += labels[:, None] * direction[None, :]
    return QgdTask(
        kind="logistic",
        features=features,
        targets=labels,
        eta=eta,
        t_iter=t_iter,
        budget_bits=budget_bits,
        seed=seed,
    )


def load_sparse_dataset(
    path,
    eta: float = 0.05,
    t_iter: int = 100,
    budget_bits: int = 4,
    seed: int = 0,
) -> QgdTask:
    """Read 'label idx:val ...' sparse text rows into a logistic task.

    Feature indices are treated as 1-based unless an index 0 appears.
    Exactly two distinct label values are required; the smaller maps to
    -1 and the larger to +1.
    """
    rows: list[dict[int, float]] = []
    raw_labels: list[float] = []
    max_idx = 0
    saw_zero = False
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            raw_labels.append(float(parts[0]))
            entries = {}
            for item in parts[1:]:
                idx_s, val_s = item.split(":", 1)
                idx = int(idx_s)
                if idx < 0:
                    raise ValueError("negative index")
                saw_zero = saw_zero or idx == 0
                max_idx = max(max_idx, idx)
                entries[idx] = float(val_s)
            rows.append(entries)
        except (ValueError, IndexError):
            raise ContractViolation(f"{path}:{lineno}: malformed sparse row: {line!r}") from None
    if not rows:
        raise ContractViolation(f"{path}: no samples found")
    uniq = sorted(set(raw_labels))
    if len(uniq) != 2:
        raise ContractViolation(f"{path}: need exactly two label values, found {uniq}")
    offset = 0 if saw_zero else 1
    dim = max_idx + 1 - offset
    features = np.zeros((len(rows), dim))
    for i, entries in enumerate(rows):
        for idx, val in entries.items():
            features[i, idx - offset] = val
    labels = np.where(np.asarray(raw_labels) == uniq[0], -1.0, 1.0)
    return QgdTask(
        kind="logistic",
        features=features,
        targets=labels,
        eta=eta,
        t_iter=t_iter,
        budget_bits=budget_bits,
        seed=seed,
    )
