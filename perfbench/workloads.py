"""The benchmark's two workloads, built from a seed, and their checks.

Every input comes from the seed and the code in this file: the toy
generators copy the acceptance criterion-01 toy families. Each workload
is built once (setup), then solved in passes; a pass is what wall_s
times. Checking happens after a pass, outside the timed region.

Why these two, and which layer each stresses:

* qgd-descent: 2 x t_iter small problems with a cheap objective, so
  per-call engine overhead, greedy repair (about 90% of the objective
  rows) and the qgd layer show; about 87% of rows are distinct, so row
  dedup is bypassed.
* toy-oracle: a solve evaluates tens of thousands of rows but only a
  few hundred distinct ones, and it is the only workload that runs the
  exhaustive oracle and the FIR and receiver objectives.

Two runs of a workload must be long to agree, and the time all runs
may take is fixed, so the benchmark holds only two workloads.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from bitalloc.fir import CoefficientSet, FilterSpec, fir_problem
from bitalloc.problem import AllocationProblem, brute_force_optimum
from bitalloc.qgd import DEFAULT_STEP_SWARM, gaussian_least_squares, train
from bitalloc.receiver import SystemConfig, receiver_problem
from bitalloc.swarm import SwarmConfig, run_gcpso, run_ppso
import bitalloc.qgd

from trace_layers import NullTracer

# Sizes are scaled so that a run holds several passes. toy-oracle draws
# its toys from the seed. qgd-descent pins the task data (seed 0) and seeds the per-step swarms,
# because the final distance relative to uniform swings by +-30% with the
# data and by +-4% with the swarm seeds.
QGD_T_ITER = 25
QGD_DATA_SEED = 0
TOYS_PER_FAMILY = 12  # two of each (i % 3, i % 2) shape, whatever the seed

ENGINES = {"ppso": run_ppso, "gcpso": run_gcpso}


@dataclass
class Outcome:
    """One solve's answer and what its checks found."""

    label: str
    engine: str  # "ppso", "gcpso" or "oracle"
    problem: Optional[AllocationProblem]
    best: Optional[np.ndarray] = None
    best_cost: float = math.nan
    trace: Optional[np.ndarray] = None
    failures: list[str] = field(default_factory=list)

    def answer(self):
        """What must repeat exactly across passes and tracing."""
        best = None if self.best is None else np.asarray(self.best).tobytes()
        return (self.label, best, self.best_cost)


@dataclass
class Review:
    """A checked pass: outcomes, (cost, uniform cost) pairs, oracle gaps."""

    outcomes: list[Outcome]
    scores: list[tuple[float, float]]
    gaps: list[float] = field(default_factory=list)


def _uniform(problem: AllocationProblem) -> np.ndarray:
    return np.full(problem.dimension, problem.budget_bits, dtype=np.int64)


def _scores(outcomes, uniform) -> list[tuple[float, float]]:
    """(cost, uniform cost) of every outcome that passed its checks."""
    return [(o.best_cost, u) for o, u in zip(outcomes, uniform) if not o.failures]


def _failed(label, engine, problem, exc: BaseException) -> Outcome:
    text = "".join(traceback.format_exception(exc)).rstrip()
    return Outcome(label, engine, problem, failures=[f"raised: {text}"])


def check_engine(out: Outcome) -> None:
    """Checks every engine answer must pass; appends to out.failures."""
    problem, best = out.problem, np.asarray(out.best)
    if best.shape != (problem.dimension,):
        out.failures.append(f"best has shape {best.shape}, expected ({problem.dimension},)")
        return
    if not np.isin(best, problem.allowed_values).all():
        out.failures.append("best leaves allowed_values")
    if not problem.is_feasible(best):
        out.failures.append(f"{out.engine} best is over budget")
    fresh = problem.evaluate_objective(best)
    if not math.isclose(out.best_cost, fresh, rel_tol=1e-9, abs_tol=0.0):
        out.failures.append(f"best_cost {out.best_cost!r} != fresh evaluation {fresh!r}")
    trace = np.asarray(out.trace)
    if (np.diff(trace) > 0).any():
        out.failures.append("trace increases")
    if trace[-1] != out.best_cost:
        out.failures.append(f"trace ends at {trace[-1]!r}, not best_cost {out.best_cost!r}")


def _engine_outcome(label, engine, problem, result) -> Outcome:
    if isinstance(result, BaseException):
        return _failed(label, engine, problem, result)
    out = Outcome(label, engine, problem, result.best, result.best_cost, result.trace)
    check_engine(out)
    return out


def _solve(tracer, engine, problem, config):
    """One traced engine solve; an exception is returned, not raised."""
    try:
        return tracer.call(
            "swarm.solve", ENGINES[engine], tracer.problem(problem), config, solve=True
        )
    except Exception as exc:  # counted as a failed solve by the review
        return exc


class QgdDescent:
    """Gaussian least squares 200 x 20 trained by ppso and gcpso per step."""

    def __init__(self, seed: int, tracer=NullTracer()):
        self.task = gaussian_least_squares(
            n_rows=200, n_cols=20, eta=0.001, t_iter=QGD_T_ITER, budget_bits=4, seed=QGD_DATA_SEED
        )
        # The shipped per-step swarm; step t uses swarm seed seed + t.
        self.config = replace(DEFAULT_STEP_SWARM, seed=seed)
        self.uniform = float(train(self.task, "uniform").metric_trace[-1])

    def solve(self, tracer):
        raw = []
        for strategy in ENGINES:
            steps = []

            def capture(engine):
                def run(problem, config):
                    try:
                        result = engine(problem, config)
                    except Exception as exc:
                        steps.append((problem, exc))
                        raise
                    steps.append((problem, result))
                    return result

                return run

            saved = bitalloc.qgd.run_ppso, bitalloc.qgd.run_gcpso
            bitalloc.qgd.run_ppso, bitalloc.qgd.run_gcpso = map(capture, saved)
            try:
                result = tracer.call(
                    "qgd.train", train, self.task, strategy, self.config, family="qgd"
                )
            except Exception as exc:
                result = exc
            finally:
                bitalloc.qgd.run_ppso, bitalloc.qgd.run_gcpso = saved
            raw.append((strategy, steps, result))
        return raw

    def review(self, raw) -> Review:
        outcomes, scores = [], []
        budget = self.task.dimension * self.task.budget_bits
        for strategy, steps, result in raw:
            step_outcomes = [
                _engine_outcome(f"qgd/{strategy}/step{t}", strategy, problem, r)
                for t, (problem, r) in enumerate(steps)
            ]
            if isinstance(result, BaseException):
                # The steps never reached count as failed, and at least one.
                failed = _failed(f"qgd/{strategy}", strategy, None, result)
                step_outcomes += [failed] * max(1, self.task.t_iter - len(steps))
            else:
                for t, bits in enumerate(result.allocations):
                    if bits.sum() > budget or not np.isin(bits, self.task.allowed_values).all():
                        step_outcomes[t].failures.append(f"step {t} allocation breaks the budget")
                scores.append((float(result.metric_trace[-1]), self.uniform))
            outcomes += step_outcomes
        return Review(outcomes, scores)


# -- copies of the acceptance criterion-01 toy families ----------------------


def toy_fir_problem(i: int) -> AllocationProblem:
    n_taps = (5, 7, 9)[i % 3]
    half_n = (n_taps + 1) // 2
    rng = np.random.default_rng([0x70F1, i])
    mags = np.exp2(rng.uniform(-5.0, -0.2, size=half_n))
    half = rng.choice([-1.0, 1.0], size=half_n) * mags
    coeffs = CoefficientSet(h=np.concatenate([half, half[-2::-1]]))
    spec = FilterSpec.of_pi([(0.0, 0.4), (0.6, 1.0)], [1.0, 0.0], [1.0, 1.0], n_taps)
    kind = "fixed" if i % 2 == 0 else "float"
    return fir_problem(spec, coeffs, kind, budget_bits=2, exp_bits=5)


def toy_receiver_problem(i: int, tracer=NullTracer()) -> AllocationProblem:
    cfg = SystemConfig(
        m_antennas=3 + (i % 3), k_users=1 + (i % 2), budget_bits=1, mc_channels=10, seed=i
    )
    return tracer.call("receiver.setup", receiver_problem, cfg, family="receiver")


def toy_qgd_problem(i: int) -> AllocationProblem:
    task = gaussian_least_squares(
        n_rows=30, n_cols=3 + (i % 3), eta=0.001, t_iter=1, budget_bits=2, seed=i
    )
    return bitalloc.qgd.qgd_problem(task, np.zeros(task.dimension))


class ToyOracle:
    """Criterion-01 toys, each solved by the oracle and by default gcpso."""

    def __init__(self, seed: int, tracer=NullTracer()):
        # Toy i has shape (i % 3, i % 2); a block of twelve per family
        # keeps the same shapes for every seed.
        ids = range(TOYS_PER_FAMILY * seed, TOYS_PER_FAMILY * (seed + 1))
        self.toys = []
        for family, make in (
            ("fir", toy_fir_problem),
            ("receiver", lambda i: toy_receiver_problem(i, tracer)),
            ("qgd", toy_qgd_problem),
        ):
            for i in ids:
                problem = make(i)
                label = f"toy-{family}{i}"
                self.toys.append((label, problem, problem.evaluate_objective(_uniform(problem)), i))

    def solve(self, tracer):
        raw = []
        for label, problem, _, i in self.toys:
            try:
                oracle = tracer.call(
                    "problem.oracle", brute_force_optimum, tracer.problem(problem), solve=True
                )
            except Exception as exc:
                oracle = exc
            raw.append((oracle, _solve(tracer, "gcpso", problem, SwarmConfig(seed=i, restarts=1))))
        return raw

    def review(self, raw) -> Review:
        outcomes, scores, gaps = [], [], []
        for (label, problem, uniform, _), (oracle, result) in zip(self.toys, raw):
            engine = _engine_outcome(f"{label}/gcpso", "gcpso", problem, result)
            if isinstance(oracle, BaseException):
                orc = _failed(f"{label}/oracle", "oracle", problem, oracle)
            else:
                best, value = oracle
                orc = Outcome(f"{label}/oracle", "oracle", problem, best, value)
                if not np.isin(best, problem.allowed_values).all() or not problem.is_feasible(best):
                    orc.failures.append("oracle best is outside the allowed, feasible set")
                fresh = problem.evaluate_objective(best)
                if not math.isclose(value, fresh, rel_tol=1e-9, abs_tol=0.0):
                    orc.failures.append(f"oracle value {value!r} != fresh evaluation {fresh!r}")
                if not engine.failures:
                    if value > engine.best_cost + 1e-9 * max(1.0, abs(value)):
                        engine.failures.append(
                            f"oracle value {value!r} above engine value {engine.best_cost!r}"
                        )
                    gaps.append((engine.best_cost - value) / abs(value))
            outcomes += [orc, engine]
            scores += _scores([engine], [uniform])
        return Review(outcomes, scores, gaps)


WORKLOADS = {
    "qgd-descent": QgdDescent,
    "toy-oracle": ToyOracle,
}


def solution_cost(review: Review) -> float:
    """1 + mean (cost - uniform) / |uniform|: 1 is no better than uniform.

    The +1 keeps the value positive, which a bound given as a share of
    the median needs; below 1 is better than uniform. With no passing
    solve it reads 1.
    """
    if not review.scores:
        return 1.0
    return 1.0 + float(np.mean([(c - u) / abs(u) for c, u in review.scores]))
