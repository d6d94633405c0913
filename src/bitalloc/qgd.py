"""Quantized gradient descent application.

One worker sends its full gradient to a server each iteration, but may
spend only an average of budget_bits per coordinate to encode it. The
gradient is normalized by its 2-norm, each coordinate is quantized by
the signed fixed-point quantizer with its allocated bit count, and the
descent step uses the dequantized vector. The allocation can be the
uniform baseline or re-optimized every iteration by one of the swarm
engines, minimizing the post-step loss directly.

A quantized gradient entry depends only on its coordinate and width,
so a step's objective reads its rows from an (N, L) table of the
gradient quantized at every allowed width, filled by the same
elementwise arithmetic and so bit-identical; the step-down hook also
reads each coordinate's change one bit lower from a second table, the
same subtraction done once. The task holds one slot of tables, for the
step it last served: a run that keeps every step's problem keeps one,
and a displaced step rebuilds its own when called.

Two tasks are built in: linear least squares (synthetic Gaussian
design, known target) and binary logistic regression with a 1/(2m)
ridge term (synthetic two-Gaussian data).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .problem import AllocationProblem, ContractViolation, require_int
from .quantizers import MAX_BUDGET_BITS, quantize_fixed_bits
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
        z_star = None if self.z_star is None else np.asarray(self.z_star, dtype=float)
        if features.ndim != 2 or targets.shape != (features.shape[0],):
            raise ContractViolation(
                f"features {features.shape} and targets {targets.shape} do not line up"
            )
        if 0 in features.shape:
            raise ContractViolation(
                f"features have shape {features.shape}; need at least one row and one column"
            )
        if z_star is not None and z_star.shape != (features.shape[1],):
            raise ContractViolation(f"z_star has shape {z_star.shape}, expected ({features.shape[1]},)")
        for name, value in (("features", features), ("targets", targets), ("z_star", z_star)):
            if value is not None and not np.isfinite(value).all():
                raise ContractViolation(f"{name} has a non-finite entry")
        if self.kind == "least_squares" and features.shape[0] < features.shape[1]:
            raise ContractViolation("least squares requires at least as many rows as columns")
        if self.kind == "logistic" and not np.isin(targets, (-1.0, 1.0)).all():
            raise ContractViolation("logistic labels must be -1 or +1")
        if not 0 < self.eta < np.inf:
            raise ContractViolation(f"eta must be positive and finite, got {self.eta}")
        for name, least, most in (("t_iter", 1, None), ("budget_bits", 1, MAX_BUDGET_BITS),
                                  ("seed", 0, None)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, least, most))
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "z_star", z_star)
        object.__setattr__(self, "_table_slot", (None, None, None))

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @cached_property
    def allowed_values(self) -> tuple[int, ...]:
        return tuple(range(1, 2 * self.budget_bits + 2))

    @cached_property
    def _gram(self) -> np.ndarray:
        """features^T features, shared by every step's least-squares problem."""
        return self.features.T @ self.features

    @cached_property
    def _half_gram_diag(self) -> np.ndarray:
        return 0.5 * np.diag(self._gram)

    @cached_property
    def _gather_offsets(self) -> np.ndarray:
        """b - lo + offsets[j] is the flat index of width b of coordinate j in a step table."""
        return np.arange(self.dimension) * len(self.allowed_values)

    def _tables(self, g: np.ndarray, mat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """g's step tables, flat (N, L), and where each width of mat sits
        in them: T[j, b - lo] = quantize_gradient(g, b)_j, and the
        step-down change T[j, max(b - 1, lo) - lo] - T[j, b - lo].

        The one table slot is keyed by g's identity and holds g itself,
        so the key cannot be recycled while the slot serves it. A width
        outside allowed_values would read another coordinate's entry (or
        wrap around), so it is a ContractViolation naming the row.
        """
        mat = np.asarray(mat, dtype=np.int64)
        if mat.shape[-1:] != (self.dimension,):
            raise ContractViolation(
                f"bit matrix has shape {mat.shape}, expected (rows, {self.dimension})"
            )
        lo, n_widths = self.allowed_values[0], len(self.allowed_values)
        col = mat - lo  # a width below lo wraps to a huge unsigned column
        if col.size and col.view(np.uint64).max() >= n_widths:
            i = int(np.flatnonzero((col.view(np.uint64) >= n_widths).any(axis=-1))[0])
            raise ContractViolation(
                f"row {i} allocation {mat[i].tolist()} has a width outside "
                f"{lo}..{self.allowed_values[-1]}"
            )
        key, table, down = self._table_slot
        if key is not g:
            widths = np.asarray(self.allowed_values)[:, None].repeat(self.dimension, axis=1)
            square = quantize_gradient(g, widths).T
            lower = np.maximum(np.arange(n_widths) - 1, 0)
            table, down = square.ravel(), (square[:, lower] - square).ravel()
            object.__setattr__(self, "_table_slot", (g, table, down))
        return table, down, col + self._gather_offsets

    def _quantized(self, g: np.ndarray, mat) -> np.ndarray:
        """quantize_gradient(g, mat), read from g's table of every width."""
        table, _, at = self._tables(g, mat)
        return table[at]


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


# The step objectives run with overflow warnings off: _refuse_overflow
# turns an overflow into one ContractViolation naming eta.
_OVERFLOW_CHECKED = np.errstate(over="ignore", invalid="ignore")


class _LeastSquaresStep:
    """Closed form of the post-step least-squares loss and its step downs.

    With residual r = y - A z, gradient g = -A^T r and the dequantized
    step q(b) = quantize_gradient(g, b), the loss after the step is

        F(b) = L0 - eta g.q + eta^2/2 q^T G q,   G = A^T A,  L0 = loss(z),

    which costs O(D^2) per row instead of a pass over the M samples.
    Changing coordinate j of q by d adds
    d (eta^2 (G q)_j + eta^2/2 G_jj d - eta g_j), so step_down values
    every one-coordinate change of a row in O(D) each, reading d from
    the task's step-down table, and a change that leaves q_j unchanged
    (d = 0, always so at the floor) adds exactly zero.
    """

    # A descent run can keep every step's problem alive, so an instance
    # holds only g and one number of its own; the Gram matrix, its
    # halved diagonal and the one slot of step tables are the task's.
    __slots__ = ("task", "g", "l0")

    def __init__(self, task: QgdTask, z: np.ndarray, g: np.ndarray):
        self.task = task
        self.g = g
        self.l0 = loss(task, z)

    def _values(self, q: np.ndarray, gq: np.ndarray) -> np.ndarray:
        eta = self.task.eta
        return self.l0 - eta * (q @ self.g) + 0.5 * (eta * eta) * (gq * q).sum(axis=1)

    @_OVERFLOW_CHECKED
    def __call__(self, mat: np.ndarray) -> np.ndarray:
        """F of every row: the problem's objective_batch."""
        q = self.task._quantized(self.g, mat)
        return _refuse_overflow(self.task, self._values(q, q @ self.task._gram))

    @_OVERFLOW_CHECKED
    def step_down(self, mat: np.ndarray) -> np.ndarray:
        table, down, at = self.task._tables(self.g, mat)
        q, d = table[at], down[at]
        gq = q @ self.task._gram
        eta = self.task.eta
        change = d * (eta * eta * (gq + self.task._half_gram_diag * d) - eta * self.g)
        return _refuse_overflow(self.task, self._values(q, gq)[:, None] + change)


def _refuse_overflow(task: QgdTask, values: np.ndarray) -> np.ndarray:
    """values, unless a step of size eta overflowed one of them: the
    post-step loss is finite in exact arithmetic."""
    if not np.isfinite(values).all():
        raise ContractViolation(f"eta = {task.eta} overflowed the step objective")
    return values


def _bit_sum(mat: np.ndarray) -> np.ndarray:
    return np.asarray(mat, dtype=float).sum(axis=1)


def qgd_problem(task: QgdTask, z) -> AllocationProblem:
    """Next-step loss minimization over the per-coordinate bit split.

    F(b) = loss(z - eta * quantize_gradient(grad, b)) with the gradient
    taken at the current z; consumption is the plain bit sum with
    budget dimension * budget_bits. Least squares evaluates F in the
    closed form of _LeastSquaresStep, which also supplies the
    objective_step_down hook; logistic regression evaluates the loss
    directly and has no hook. Both read the quantized gradient from the
    task's table (see the module docstring), and a value that a step of
    size eta overflowed is a ContractViolation naming eta.
    """
    z = np.asarray(z, dtype=float)
    g = gradient(task, z)
    if float(np.linalg.norm(g)) == 0.0:
        raise ContractViolation("gradient is zero; descent has converged")

    if task.kind == "least_squares":
        objective_batch = _LeastSquaresStep(task, z, g)
        step_down = objective_batch.step_down
    else:

        @_OVERFLOW_CHECKED
        def objective_batch(mat: np.ndarray) -> np.ndarray:
            q = task._quantized(g, mat)
            return _refuse_overflow(task, _loss_batch(task, z[None, :] - task.eta * q))

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
            # The engines are looked up in this module's globals at call
            # time, so a caller can swap them for wrappers that see every
            # step's problem, as perfbench's qgd workload does.
            bits = (run_gcpso if strategy == "gcpso" else run_ppso)(problem, cfg).best
        allocations[t] = bits
        with np.errstate(over="ignore", invalid="ignore"):
            z = z - task.eta * quantize_gradient(g, bits)
            metric_trace[t + 1] = _metric(task, z)
        if not (np.isfinite(z).all() and np.isfinite(metric_trace[t + 1])):
            raise ContractViolation(f"eta = {task.eta} overflowed descent step {t + 1}")

    return TrainResult(z=z, metric_trace=metric_trace, allocations=allocations)


# -- task constructors ---------------------------------------------------------


def _check_sizes(seed: int, **sizes: int) -> None:
    """Reject a non-integer size or seed by name, before a draw from them."""
    require_int(seed, "seed", 0)
    for name, size in sizes.items():
        require_int(size, name, 1)


def gaussian_least_squares(
    n_rows: int = 200,
    n_cols: int = 20,
    eta: float = 0.001,
    t_iter: int = 200,
    budget_bits: int = 4,
    seed: int = 0,
) -> QgdTask:
    """Random Gaussian design with a known planted target, noiseless."""
    _check_sizes(seed, n_rows=n_rows, n_cols=n_cols)
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
    _check_sizes(seed, n_samples=n_samples, n_features=n_features)
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
